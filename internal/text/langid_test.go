package text

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
)

// langIDEdgeInputs are the inputs most likely to separate the packed-code
// kernel from the string-gram oracle: white space, too-short text,
// invalid UTF-8, case mappings that change byte length or are not
// one-to-one, and CJK/Latin mixes on both sides of the CJK shortcut.
var langIDEdgeInputs = []string{
	"", " ", "   ", "\t\n\r\v\f ", " \u0085  　",
	"a", "ab", "é", "Éa", "中", "中文", " a", "a  b",
	"\xff", "\xff\xfe", "ab\xffcd", "\xe4\xb8", "the \xc3\x28 quick \xed\xa0\x80 fox",
	"��� the fox", "� \xff�",
	"Ärger Über Öl und Straße, ÇA VA À LA FORÊT, EL NIÑO ESTÁ AQUÍ",
	"İSTANBUL İstanbul ıi Iİ ß SS ẞ ΣΟΦΟΣ σοφος ς Σ ǅ ǈ K Ω Å",
	"DER SCHNELLE BRAUNE FUCHS SPRINGT ÜBER DEN FAULEN HUND",
	"中文和English混合 the quick brown fox 跳过懒狗",
	"数据处理 data processing 质量 quality 多样性 diversity and more english words here",
	"快速的棕色狐狸 jumps", "the 快速的棕色狐狸跳过懒狗然后跑过森林",
	"   the   quick \n\n\n brown\t\t\tfox   ",
}

// checkLangIDMatchesReference fails t unless the kernel and the oracle
// agree exactly on s.
func checkLangIDMatchesReference(t *testing.T, l *LangID, ref *refLangID, s string) {
	t.Helper()
	gotLang, gotScore := l.Classify(s)
	wantLang, wantScore := ref.Classify(s)
	if gotLang != wantLang || gotScore != wantScore {
		t.Fatalf("Classify(%.80q) = (%q, %v), reference (%q, %v)",
			s, gotLang, gotScore, wantLang, wantScore)
	}
}

// TestLangIDMatchesReference pins the packed-code kernel to the
// string-gram implementation it replaced: same language, same score bit
// for bit, on seed text, edge cases and generated corpora.
func TestLangIDMatchesReference(t *testing.T) {
	l, ref := NewLangID(), newRefLangID()
	if got, want := strings.Join(l.Languages(), ","), strings.Join(ref.Languages(), ","); got != want {
		t.Fatalf("Languages() = %s, reference %s", got, want)
	}
	var inputs []string
	for _, seed := range seedTexts {
		runes := []rune(seed)
		inputs = append(inputs, seed, string(runes[:len(runes)/7]))
	}
	inputs = append(inputs, langIDEdgeInputs...)
	for seed := int64(1); seed <= 5; seed++ {
		for _, s := range corpus.Web(corpus.Options{Docs: 60, Seed: seed}).Samples {
			inputs = append(inputs, s.Text)
		}
		for _, s := range corpus.Books(corpus.Options{Docs: 20, Seed: seed}).Samples {
			inputs = append(inputs, s.Text)
		}
	}
	// Every input is also checked upper-cased, so the kernel's per-rune
	// lower-casing is exercised on all of them.
	for _, s := range inputs {
		checkLangIDMatchesReference(t, l, ref, s)
		checkLangIDMatchesReference(t, l, ref, strings.ToUpper(s))
	}
}

// TestLangIDConcurrentClassify shares one LangID across goroutines; run
// under -race it checks that the pooled scratch is never shared.
func TestLangIDConcurrentClassify(t *testing.T) {
	l, ref := NewLangID(), newRefLangID()
	texts := append([]string{seedTexts["en"], seedTexts["de"], seedTexts["fr"]}, langIDEdgeInputs...)
	type result struct {
		lang  string
		score float64
	}
	want := make([]result, len(texts))
	for i, s := range texts {
		want[i].lang, want[i].score = ref.Classify(s)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				i := (g + round) % len(texts)
				lang, score := l.Classify(texts[i])
				if lang != want[i].lang || score != want[i].score {
					t.Errorf("goroutine %d: Classify(%.40q) = (%q, %v), want (%q, %v)",
						g, texts[i], lang, score, want[i].lang, want[i].score)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzLangIDMatchesReference checks the kernel against the oracle on
// arbitrary bytes, invalid UTF-8 included.
func FuzzLangIDMatchesReference(f *testing.F) {
	for _, s := range langIDEdgeInputs {
		f.Add(s)
	}
	l, ref := NewLangID(), newRefLangID()
	f.Fuzz(func(t *testing.T, s string) {
		checkLangIDMatchesReference(t, l, ref, s)
	})
}

// BenchmarkLangIDClassify times one Classify over generated web docs, for
// the kernel and for the reference it replaced.
func BenchmarkLangIDClassify(b *testing.B) {
	var texts []string
	for _, s := range corpus.Web(corpus.Options{Docs: 200, Seed: 3}).Samples {
		texts = append(texts, s.Text)
	}
	for _, c := range []struct {
		name     string
		classify func(string) (string, float64)
	}{
		{"kernel", NewLangID().Classify},
		{"reference", newRefLangID().Classify},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.classify(texts[i%len(texts)])
			}
		})
	}
}
