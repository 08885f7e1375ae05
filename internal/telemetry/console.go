package telemetry

import (
	"fmt"
	"io"
	"time"
)

// Console returns a journal-event observer that renders human progress
// lines to w — the same event stream the JSONL journal records, so the
// console output and the journal can never disagree. Attach with
// Run.OnEvent. Per-op completion events are intentionally not rendered
// line-by-line: the end-of-run table covers them.
func Console(w io.Writer) func(Event) {
	return func(e Event) {
		switch e.Type {
		case EvRunStart:
			src := e.Recipe
			if src == "" {
				src = "(inline recipe)"
			}
			if e.In > 0 {
				fmt.Fprintf(w, "run %s [%s]: %s <- %s (%d samples)\n",
					e.RunID, e.Backend, src, e.Input, e.In)
			} else {
				fmt.Fprintf(w, "run %s [%s]: %s <- %s\n", e.RunID, e.Backend, src, e.Input)
			}
		case EvPlan:
			measured := 0
			for _, op := range e.Ops {
				if op.Measured {
					measured++
				}
			}
			fmt.Fprintf(w, "plan: %d ops (%d measured)\n", len(e.Ops), measured)
		case EvPhase:
			if e.Phase > 0 {
				fmt.Fprintf(w, "phase %d: %s\n", e.Phase, e.Name)
			}
		case EvPersistCorrupt:
			fmt.Fprintf(w, "discarded corrupt %s entry %s (%s); recomputing\n", e.Kind, e.Path, e.Why)
		case EvExport:
			fmt.Fprintf(w, "exported to %s\n", e.Input)
		case EvRunEnd:
			if e.Status != "ok" {
				fmt.Fprintf(w, "run failed after %s: %s\n",
					time.Duration(e.DurNS).Round(time.Millisecond), e.Error)
				return
			}
			line := fmt.Sprintf("processed: %d -> %d samples in %s (%d planned ops",
				e.In, e.Out, time.Duration(e.DurNS).Round(time.Millisecond), e.PlanOps)
			if e.Shards > 0 {
				line += fmt.Sprintf(", %d shards", e.Shards)
			}
			if e.Resumed > 0 {
				line += fmt.Sprintf(", %d resumed", e.Resumed)
			}
			line += ")"
			if e.Note != "" {
				line += " " + e.Note
			}
			fmt.Fprintln(w, line)
		}
	}
}
