package text

// The language identifier as it was before the packed-code kernel: one
// trigram string per window, counted in a map, and a cosine per language
// that re-sorts and re-sums both profiles on every call. It is kept only
// as the oracle the kernel must match bit for bit (langid_test.go).

import (
	"math"
	"sort"
	"strings"
)

// refLangID is a character-trigram language identifier, the stand-in for the
// fasttext model used by the paper's language_id_score_filter. Profiles
// are built from embedded seed text; Classify returns the best language
// and a confidence score in [0, 1].
type refLangID struct {
	profiles map[string]map[string]float64
}

// newRefLangID builds the identifier from the embedded seed profiles.
func newRefLangID() *refLangID {
	l := &refLangID{profiles: make(map[string]map[string]float64, len(seedTexts))}
	for lang, seed := range seedTexts {
		l.profiles[lang] = refTrigramProfile(seed)
	}
	return l
}

// Languages returns the supported language codes, sorted.
func (l *refLangID) Languages() []string {
	out := make([]string, 0, len(l.profiles))
	for k := range l.profiles {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Classify returns the most likely language for s and a confidence score
// in [0, 1]. Empty or too-short input yields ("", 0).
func (l *refLangID) Classify(s string) (lang string, score float64) {
	// Fast, reliable path: a high share of CJK letters is decisive.
	if r := CJKRatio(s); r > 0.5 {
		return "zh", r
	}
	p := refTrigramProfile(strings.ToLower(s))
	if len(p) == 0 {
		return "", 0
	}
	type cand struct {
		lang string
		sim  float64
	}
	cands := make([]cand, 0, len(l.profiles))
	for lg, prof := range l.profiles {
		cands = append(cands, cand{lg, refCosine(p, prof)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].sim != cands[j].sim {
			return cands[i].sim > cands[j].sim
		}
		return cands[i].lang < cands[j].lang
	})
	best := cands[0]
	if best.sim <= 0 {
		return "", 0
	}
	// Confidence: the winner's share of total similarity mass, sharpened;
	// short texts with ambiguous trigrams land near 1/len(languages).
	total := 0.0
	for _, c := range cands {
		total += c.sim
	}
	conf := best.sim / total
	// Rescale from [1/n, 1] to [0, 1].
	n := float64(len(cands))
	conf = (conf - 1/n) / (1 - 1/n)
	if conf < 0 {
		conf = 0
	}
	return best.lang, math.Min(1, math.Sqrt(conf)*1.6)
}

// Score returns the confidence that s is in language want.
func (l *refLangID) Score(s, want string) float64 {
	lang, score := l.Classify(s)
	if lang != want {
		return 0
	}
	return score
}

func refTrigramProfile(s string) map[string]float64 {
	grams := CharNGrams(s, 3)
	if len(grams) == 0 {
		return nil
	}
	p := make(map[string]float64, len(grams))
	for _, g := range grams {
		if strings.TrimSpace(g) == "" {
			continue
		}
		p[g]++
	}
	return p
}

// cosine sums in sorted key order so the score does not depend on Go's
// randomized map iteration (float addition is not associative; a
// nondeterministic sum would make filter verdicts nondeterministic).
func refCosine(a, b map[string]float64) float64 {
	keysA := make([]string, 0, len(a))
	for k := range a {
		keysA = append(keysA, k)
	}
	sort.Strings(keysA)
	var dot, na, nb float64
	for _, k := range keysA {
		av := a[k]
		na += av * av
		if bv, ok := b[k]; ok {
			dot += av * bv
		}
	}
	keysB := make([]string, 0, len(b))
	for k := range b {
		keysB = append(keysB, k)
	}
	sort.Strings(keysB)
	for _, k := range keysB {
		nb += b[k] * b[k]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}
