package text

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"sync"
	"unicode"
)

// LangID is a character-trigram language identifier, the stand-in for the
// fasttext model used by the paper's language_id_score_filter. Profiles
// are built from embedded seed text; Classify returns the best language
// and a confidence score in [0, 1].
//
// A trigram is three runes packed into one uint64 code (trigramCode), so
// Classify never builds a gram string or a map: it collects the codes of
// the lower-cased input into a pooled buffer, sorts them, and walks the
// runs, adding each run's count times the seed counts into one integer
// dot product per language. Every quantity of the cosine is an integer,
// which is what makes the kernel allocation-free and its result
// independent of summation order. Classify is safe for concurrent use.
type LangID struct {
	langs []string // sorted
	// index maps a seed trigram code to its row in counts; row r holds
	// the count of that trigram in each language's seed, in langs order.
	index  map[uint64]int32
	counts []int64
	norms  []int64 // Σ count² of each language's seed profile
}

// seedTexts are small, representative snippets per language. Trigram
// profiles extracted from them separate the synthetic corpora cleanly;
// they are not intended to match fasttext accuracy on real web text.
var seedTexts = map[string]string{
	"en": `the quick brown fox jumps over the lazy dog and then runs through
the forest where many animals live together in peace this is a sentence
with common english words that people use every day when they talk about
their work their families and the world around them we should also note
that language models are trained on large amounts of text which makes
the distribution of letters and words very important for all of these
systems and their users everywhere something about history science and
government with information knowledge education research development`,
	"de": `der schnelle braune fuchs springt über den faulen hund und läuft
dann durch den wald wo viele tiere zusammen leben dies ist ein satz mit
häufigen deutschen wörtern die menschen jeden tag benutzen wenn sie über
ihre arbeit ihre familien und die welt um sie herum sprechen wir sollten
auch beachten dass sprachmodelle auf großen textmengen trainiert werden
was die verteilung von buchstaben und wörtern sehr wichtig macht etwas
über geschichte wissenschaft und regierung mit informationen wissen`,
	"fr": `le rapide renard brun saute par dessus le chien paresseux et court
ensuite à travers la forêt où beaucoup d'animaux vivent ensemble en paix
ceci est une phrase avec des mots français courants que les gens utilisent
tous les jours quand ils parlent de leur travail de leurs familles et du
monde qui les entoure nous devons aussi noter que les modèles de langue
sont entraînés sur de grandes quantités de texte ce qui rend la
distribution des lettres et des mots très importante pour ces systèmes`,
	"es": `el rápido zorro marrón salta sobre el perro perezoso y luego corre
por el bosque donde muchos animales viven juntos en paz esta es una frase
con palabras comunes en español que la gente usa todos los días cuando
hablan de su trabajo sus familias y el mundo que les rodea también debemos
señalar que los modelos de lenguaje se entrenan con grandes cantidades de
texto lo que hace que la distribución de letras y palabras sea muy
importante para todos estos sistemas y sus usuarios en todas partes`,
	"zh": `快速的棕色狐狸跳过懒狗然后跑过森林那里有许多动物和平地生活在一起这是
一个包含常用中文词汇的句子人们每天谈论工作家庭和周围世界时都会使用这些词我们
还应该注意语言模型是在大量文本上训练的这使得字母和单词的分布对所有这些系统及
其用户都非常重要历史科学政府信息知识教育研究发展数据处理质量多样性`,
}

// NewLangID builds the identifier from the embedded seed profiles.
func NewLangID() *LangID {
	l := &LangID{index: make(map[uint64]int32)}
	for lang := range seedTexts {
		l.langs = append(l.langs, lang)
	}
	slices.Sort(l.langs)
	n := len(l.langs)
	l.norms = make([]int64, n)
	for j, lang := range l.langs {
		// The seed texts are lower case, so lower-casing them as every
		// input is changes nothing.
		codes := appendTrigramCodes(nil, seedTexts[lang])
		slices.Sort(codes)
		eachRun(codes, func(code uint64, c int64) {
			row, ok := l.index[code]
			if !ok {
				row = int32(len(l.counts) / n)
				l.index[code] = row
				l.counts = append(l.counts, make([]int64, n)...)
			}
			l.counts[int(row)*n+j] = c
			l.norms[j] += c * c
		})
	}
	return l
}

// Languages returns the supported language codes, sorted.
func (l *LangID) Languages() []string {
	return slices.Clone(l.langs)
}

type langCand struct {
	lang string
	sim  float64
}

// langScratch is the per-call working set of Classify, pooled so a
// steady-state call allocates nothing.
type langScratch struct {
	codes []uint64
	dots  []int64
	cands []langCand
}

var langScratchPool = sync.Pool{New: func() any {
	return &langScratch{codes: make([]uint64, 0, 1024)}
}}

// Classify returns the most likely language for s and a confidence score
// in [0, 1]. Empty or too-short input yields ("", 0).
func (l *LangID) Classify(s string) (lang string, score float64) {
	// Fast, reliable path: a high share of CJK letters is decisive.
	if r := CJKRatio(s); r > 0.5 {
		return "zh", r
	}
	sc := langScratchPool.Get().(*langScratch)
	defer langScratchPool.Put(sc)
	sc.codes = appendTrigramCodes(sc.codes[:0], s)
	if len(sc.codes) == 0 {
		return "", 0
	}
	slices.Sort(sc.codes)
	n := len(l.langs)
	sc.dots = append(sc.dots[:0], make([]int64, n)...)
	var norm int64
	eachRun(sc.codes, func(code uint64, c int64) {
		norm += c * c
		if row, ok := l.index[code]; ok {
			seed := l.counts[int(row)*n : int(row)*n+n]
			for j, sv := range seed {
				sc.dots[j] += c * sv
			}
		}
	})
	sc.cands = sc.cands[:0]
	for j, lg := range l.langs {
		sc.cands = append(sc.cands, langCand{lg, cosine(sc.dots[j], norm, l.norms[j])})
	}
	// Rank by similarity descending, then language.
	slices.SortFunc(sc.cands, func(a, b langCand) int {
		if c := cmp.Compare(b.sim, a.sim); c != 0 {
			return c
		}
		return strings.Compare(a.lang, b.lang)
	})
	best := sc.cands[0]
	if best.sim <= 0 {
		return "", 0
	}
	// Confidence: the winner's share of total similarity mass, sharpened;
	// short texts with ambiguous trigrams land near 1/len(languages).
	// The similarities are not integers, so the total is summed in the
	// fixed ranked order.
	total := 0.0
	for _, c := range sc.cands {
		total += c.sim
	}
	conf := best.sim / total
	// Rescale from [1/n, 1] to [0, 1].
	nf := float64(len(sc.cands))
	conf = (conf - 1/nf) / (1 - 1/nf)
	if conf < 0 {
		conf = 0
	}
	return best.lang, math.Min(1, math.Sqrt(conf)*1.6)
}

// Score returns the confidence that s is in language want.
func (l *LangID) Score(s, want string) float64 {
	lang, score := l.Classify(s)
	if lang != want {
		return 0
	}
	return score
}

// trigramCode packs three runes into one code. Runes are at most
// U+10FFFF, so 21 bits each hold them and distinct trigrams get
// distinct codes.
func trigramCode(a, b, c rune) uint64 {
	return uint64(a)<<42 | uint64(b)<<21 | uint64(c)
}

// appendTrigramCodes appends the code of every overlapping rune trigram
// of s, lower-casing each rune first, and skips trigrams made only of
// white space. Ranging over s decodes an invalid byte as U+FFFD, and
// unicode.ToLower maps rune for rune, so the trigrams are exactly those
// of []rune(strings.ToLower(s)).
func appendTrigramCodes(dst []uint64, s string) []uint64 {
	var r0, r1 rune
	var sp0, sp1 bool
	i := 0
	for _, r := range s {
		r = unicode.ToLower(r)
		sp := unicode.IsSpace(r)
		if i >= 2 && !(sp0 && sp1 && sp) {
			dst = append(dst, trigramCode(r0, r1, r))
		}
		r0, r1, sp0, sp1 = r1, r, sp1, sp
		i++
	}
	return dst
}

// eachRun calls fn once per distinct code of the sorted codes with its
// multiplicity.
func eachRun(codes []uint64, fn func(code uint64, count int64)) {
	for i := 0; i < len(codes); {
		j := i + 1
		for j < len(codes) && codes[j] == codes[i] {
			j++
		}
		fn(codes[i], int64(j-i))
		i = j
	}
}

// cosine is the cosine similarity of two count vectors given their dot
// product and squared norms. All three are sums of products of small
// integers, exact in int64 and exactly representable as float64, so the
// result does not depend on the order the trigrams are visited in and
// needs no sort to be deterministic.
func cosine(dot, na, nb int64) float64 {
	if na == 0 || nb == 0 {
		return 0
	}
	return float64(dot) / (math.Sqrt(float64(na)) * math.Sqrt(float64(nb)))
}
