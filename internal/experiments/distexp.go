package experiments

import (
	"fmt"
	"time"

	"repro/internal/config"
	"repro/internal/dist"
	"repro/internal/stream"
)

// Fig10Cell is one (dataset, engine, nodes) scalability measurement.
type Fig10Cell struct {
	Dataset string
	Engine  dist.Engine
	Nodes   int
	Total   time.Duration
}

// Fig10Result reproduces the distributed scalability experiment.
type Fig10Result struct {
	Cells  []Fig10Cell
	Render string
}

// fig10RecipeYAML keeps the processing load realistic but bounded.
const fig10RecipeYAML = `
project_name: fig10
use_cache: false
op_fusion: true
process:
  - clean_links_mapper:
  - whitespace_normalization_mapper:
  - word_num_filter:
      min_num: 5
  - stopwords_filter:
      min_ratio: 0.02
  - word_repetition_filter:
      rep_len: 5
      max_ratio: 0.6
  - document_deduplicator:
`

// Fig10 reproduces Figure 10: processing time across cluster sizes for
// the Ray-like and Beam-like runners on StackExchange- and arXiv-like
// datasets (plus the single-machine executor at one node). Expected
// shape: Ray time falls near-linearly with nodes; Beam stays flat
// (loading is serialized); the original executor wins at one node.
func Fig10(s Scale) (*Fig10Result, error) {
	recipe, err := config.ParseRecipe(fig10RecipeYAML)
	if err != nil {
		return nil, err
	}
	nodesList := []int{1, 2, 4, 8, 16}
	datasets := map[string]string{
		"stackexchange": "stackexchange",
		"arxiv":         "arxiv",
	}
	res := &Fig10Result{}
	for _, name := range []string{"stackexchange", "arxiv"} {
		d := rawSource(datasets[name], s.DistDocs, s.Seed+97)
		shards, err := dist.EncodeShards(dist.Partition(d, 16))
		if err != nil {
			return nil, err
		}
		// Measure shard costs once; compose every engine/node-count from
		// the same measurements so curves are comparable.
		process, err := stream.MeasureRunner(recipe)
		if err != nil {
			return nil, err
		}
		costs, err := dist.Measure(shards, process)
		if err != nil {
			return nil, err
		}
		// Original single-machine executor (one point, as in the paper).
		local, err := dist.Compose(dist.EngineLocal, costs, dist.Config{Nodes: 1, CoresPerNode: 64})
		if err != nil {
			return nil, err
		}
		res.Cells = append(res.Cells, Fig10Cell{Dataset: name, Engine: dist.EngineLocal, Nodes: 1, Total: local.Total})
		for _, engine := range []dist.Engine{dist.EngineRay, dist.EngineBeam} {
			for _, nodes := range nodesList {
				r, err := dist.Compose(engine, costs, dist.Config{Nodes: nodes, CoresPerNode: 64})
				if err != nil {
					return nil, err
				}
				res.Cells = append(res.Cells, Fig10Cell{Dataset: name, Engine: engine, Nodes: nodes, Total: r.Total})
			}
		}
	}
	var rows [][]string
	for _, c := range res.Cells {
		rows = append(rows, []string{
			c.Dataset, string(c.Engine), fmt.Sprint(c.Nodes),
			c.Total.Round(10 * time.Microsecond).String(),
		})
	}
	res.Render = "Figure 10 — processing time vs number of nodes (simulated cluster, measured per-shard costs)\n" +
		table([]string{"dataset", "engine", "nodes", "time"}, rows)
	return res, nil
}
