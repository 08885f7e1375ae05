package core

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/dataset"
	"repro/internal/format"
)

// LoadInput resolves the recipe's input — dataset_path or the weighted
// sources: list — into a fully resident dataset for the Executor.
// Streaming runs open the identical spec incrementally via
// stream.OpenSource(r.DatasetSpec(), ...), so batch and streaming runs
// consume the same sample sequence, provenance tags included.
func LoadInput(r *config.Recipe) (*dataset.Dataset, error) {
	spec := r.DatasetSpec()
	if spec == "" {
		return nil, fmt.Errorf("core: recipe has no input: set dataset_path or sources")
	}
	return format.Load(spec)
}
