// Package analysis implements the analyzer of Sec. 4.2: per-sample
// statistics across 13+ dimensions, dataset-level summaries (count, mean,
// std, min/max, quantiles, entropy), ASCII histograms and box plots (the
// terminal rendering of the paper's interactive visualizations), probe
// diffs for before/after comparison (Figure 4c), and verb–noun diversity
// analysis (the pie plots of Figures 2 and 5).
package analysis

import (
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/sample"
	"repro/internal/text"
)

// Summary condenses one statistical dimension over a dataset.
type Summary struct {
	Name  string
	Count int
	Mean  float64
	Std   float64
	Min   float64
	Max   float64
	P25   float64
	P50   float64
	P75   float64
	// Entropy of the 20-bin histogram, in bits: low entropy means the
	// dimension is concentrated.
	Entropy float64
}

// Summarize computes a Summary over values.
func Summarize(name string, values []float64) Summary {
	s := Summary{Name: name, Count: len(values)}
	if len(values) == 0 {
		return s
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	// Welford's streaming mean/variance: numerically stable and immune to
	// the sum overflow a naive two-pass computation hits on huge values.
	var mean, m2 float64
	for i, v := range sorted {
		n := float64(i + 1)
		delta := v - mean
		mean += delta / n
		m2 += delta * (v - mean)
	}
	s.Mean = mean
	s.Std = math.Sqrt(m2 / float64(len(sorted)))
	s.P25 = quantile(sorted, 0.25)
	s.P50 = quantile(sorted, 0.50)
	s.P75 = quantile(sorted, 0.75)
	s.Entropy = histogramEntropy(sorted, 20)
	return s
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func histogramEntropy(sorted []float64, bins int) float64 {
	counts := binCounts(sorted, bins)
	var h float64
	n := float64(len(sorted))
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}

func binCounts(sorted []float64, bins int) []int {
	counts := make([]int, bins)
	if len(sorted) == 0 {
		return counts
	}
	lo, hi := sorted[0], sorted[len(sorted)-1]
	if hi == lo {
		counts[0] = len(sorted)
		return counts
	}
	width := (hi - lo) / float64(bins)
	for _, v := range sorted {
		b := int((v - lo) / width)
		// Guard against rounding and float-overflow artifacts (a huge range
		// can make width infinite and the quotient NaN).
		if b < 0 || b != b {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	return counts
}

// PairCount is one verb–noun pair with its frequency.
type PairCount struct {
	Verb, Noun string
	Count      int
}

// Probe is the data probe of Figure 5: dimension summaries plus lexical
// diversity structure.
type Probe struct {
	N    int
	Dims map[string]Summary
	// values retained for rendering histograms.
	values map[string][]float64
	// Diversity holds verb–noun pairs sorted by frequency.
	Diversity []PairCount
	// UniqueWordRatio is distinct words / total words over the dataset.
	UniqueWordRatio float64
}

// DimNames returns the analyzed dimensions, sorted.
func (p *Probe) DimNames() []string {
	names := make([]string, 0, len(p.Dims))
	for k := range p.Dims {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Values returns the raw per-sample values of one dimension.
func (p *Probe) Values(dim string) []float64 { return p.values[dim] }

// Analyze computes the default probe dimensions over the dataset. Any
// numeric stats already present on samples (from Filter OPs) are included
// as extra dimensions.
func Analyze(d *dataset.Dataset, np int) *Probe {
	n := d.Len()
	dims := map[string][]float64{}
	addDim := func(name string) []float64 {
		v := make([]float64, n)
		dims[name] = v
		return v
	}
	var (
		textLen     = addDim("text_len")
		numWords    = addDim("num_words")
		avgWordLen  = addDim("avg_word_len")
		numLines    = addDim("num_lines")
		avgLineLen  = addDim("avg_line_length")
		maxLineLen  = addDim("max_line_length")
		numSent     = addDim("num_sentences")
		numParas    = addDim("num_paragraphs")
		alnumRatio  = addDim("alnum_ratio")
		specialChar = addDim("special_char_ratio")
		digitRatio  = addDim("digit_ratio")
		stopRatio   = addDim("stopwords_ratio")
		flaggedRat  = addDim("flagged_words_ratio")
		charRep     = addDim("char_rep_ratio")
		wordRep     = addDim("word_rep_ratio")
		uniqueRatio = addDim("unique_word_ratio")
	)

	stopwords := text.Stopwords("en")
	flagged := text.FlaggedWords("en")
	pairCh := make(chan [][2]string, n)
	wordTotals := make([]int, n)
	wordUniques := make([]int, n)

	_ = d.MapIndexed(np, func(i int, s *sample.Sample) error {
		t := s.Text
		runes := len([]rune(t))
		textLen[i] = float64(runes)

		words := text.WordsLower(t)
		numWords[i] = float64(len(words))
		wordTotals[i] = len(words)
		var wl int
		uniq := make(map[string]struct{}, len(words))
		stops, flags := 0, 0
		for _, w := range words {
			wl += len([]rune(w))
			uniq[w] = struct{}{}
			if _, ok := stopwords[w]; ok {
				stops++
			}
			if _, ok := flagged[w]; ok {
				flags++
			}
		}
		wordUniques[i] = len(uniq)
		if len(words) > 0 {
			avgWordLen[i] = float64(wl) / float64(len(words))
			stopRatio[i] = float64(stops) / float64(len(words))
			flaggedRat[i] = float64(flags) / float64(len(words))
			uniqueRatio[i] = float64(len(uniq)) / float64(len(words))
		}

		lines := text.Lines(t)
		numLines[i] = float64(len(lines))
		var totalLineLen, maxL int
		for _, l := range lines {
			ll := len([]rune(l))
			totalLineLen += ll
			if ll > maxL {
				maxL = ll
			}
		}
		if len(lines) > 0 {
			avgLineLen[i] = float64(totalLineLen) / float64(len(lines))
		}
		maxLineLen[i] = float64(maxL)

		numSent[i] = float64(len(text.Sentences(t)))
		numParas[i] = float64(len(text.Paragraphs(t)))
		alnumRatio[i] = text.AlnumRatio(t)
		specialChar[i] = text.SpecialCharRatio(t)
		digitRatio[i] = text.DigitRatio(t)
		charRep[i] = text.CharNGramRepetitionRatio(t, 10)
		wordRep[i] = text.WordNGramRepetitionRatio(words, 5)

		pairCh <- text.VerbNounPairs(words)
		return nil
	})
	close(pairCh)

	pairCounts := map[[2]string]int{}
	for ps := range pairCh {
		for _, p := range ps {
			pairCounts[p]++
		}
	}
	var diversity []PairCount
	for p, c := range pairCounts {
		diversity = append(diversity, PairCount{Verb: p[0], Noun: p[1], Count: c})
	}
	sort.Slice(diversity, func(i, j int) bool {
		if diversity[i].Count != diversity[j].Count {
			return diversity[i].Count > diversity[j].Count
		}
		if diversity[i].Verb != diversity[j].Verb {
			return diversity[i].Verb < diversity[j].Verb
		}
		return diversity[i].Noun < diversity[j].Noun
	})

	// Fold in stats computed by Filter OPs, when present.
	statDims := map[string][]float64{}
	for _, s := range d.Samples {
		for _, key := range s.Stats.Keys() {
			if v, ok := s.Stat(key); ok {
				statDims["stats."+key] = append(statDims["stats."+key], v)
			}
		}
	}
	for k, v := range statDims {
		if _, clash := dims[k]; !clash {
			dims[k] = v
		}
	}

	probe := &Probe{N: n, Dims: map[string]Summary{}, values: dims, Diversity: diversity}
	var totalWords, totalUnique int
	for i := 0; i < n; i++ {
		totalWords += wordTotals[i]
		totalUnique += wordUniques[i]
	}
	if totalWords > 0 {
		probe.UniqueWordRatio = float64(totalUnique) / float64(totalWords)
	}
	for name, vals := range dims {
		probe.Dims[name] = Summarize(name, vals)
	}
	return probe
}
