package main

import "sort"

// layerOps is every operator any workload plans; each gets
// ops.<op>.s/.in/.out. Workloads that do not run an op report it as 0.
var layerOps = []string{
	"fix_unicode_mapper", "clean_html_mapper", "clean_links_mapper", "clean_email_mapper",
	"clean_ip_mapper", "punctuation_normalization_mapper", "remove_non_printing_mapper",
	"whitespace_normalization_mapper",
	"language_id_score_filter", "text_length_filter", "alphanumeric_filter", "special_characters_filter",
	"word_num_filter", "character_repetition_filter", "word_repetition_filter", "stopwords_filter",
	"flagged_words_filter", "perplexity_filter",
	"document_deduplicator", "document_minhash_deduplicator",
}

// fixedLayerMetrics are the per-layer metrics besides the per-op ones.
var fixedLayerMetrics = [][2]string{
	{"format.read_s", "s"}, {"format.read_mb", "MB"},
	{"plan.build_s", "s"},
	{"stream.shards", "count"}, {"stream.shard_s_max", "s"},
	{"stream.index_wait_s", "s"}, {"stream.index_blocked", "count"},
	{"spill.runs", "count"}, {"spill.mb", "MB"},
	{"cache.get_s", "s"}, {"cache.put_s", "s"}, {"cache.entries", "count"},
	{"cache.mb", "MB"}, {"cache.hit_ratio", "ratio"},
	{"dist.setup_s", "s"}, {"dist.stage_s", "s"}, {"dist.worker_ops_s", "s"}, {"dist.wire_s", "s"},
	{"dist.sent_mb", "MB"}, {"dist.recv_mb", "MB"}, {"dist.retries", "count"}, {"dist.fallbacks", "count"},
	{"sink.write_s", "s"}, {"sink.mb", "MB"},
	{"trace.wall_s", "s"}, {"trace.residual_s", "s"}, {"trace.overhead_s", "s"},
}

// perLayerUnits maps every per-layer metric name to its unit.
func perLayerUnits() map[string]string {
	u := map[string]string{}
	for _, m := range fixedLayerMetrics {
		u[m[0]] = m[1]
	}
	for _, l := range layers {
		u["self."+l+"_s"] = "s"
	}
	for _, op := range layerOps {
		u["ops."+op+".s"] = "s"
		u["ops."+op+".in"] = "count"
		u["ops."+op+".out"] = "count"
	}
	return u
}

// perLayerNames lists the per-layer metric names in sorted order.
func perLayerNames() []string {
	u := perLayerUnits()
	names := make([]string, 0, len(u))
	for n := range u {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
