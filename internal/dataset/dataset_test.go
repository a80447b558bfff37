package dataset

import (
	"testing"

	"lexequal/internal/core"
	"lexequal/internal/phoneme"
	"lexequal/internal/script"
	"lexequal/internal/ttp"
)

func buildLex(t *testing.T) *Lexicon {
	t.Helper()
	lex, err := BuildLexicon(ttp.Default(), SourceAll)
	if err != nil {
		t.Fatal(err)
	}
	return lex
}

func TestBaseNamesDedup(t *testing.T) {
	names := BaseNames(SourceAll)
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate base name %q", n)
		}
		seen[n] = true
	}
	if len(names) < 700 {
		t.Errorf("only %d base names; the paper used about 800", len(names))
	}
	// Sources compose.
	in := len(BaseNames(SourceIndian))
	am := len(BaseNames(SourceAmerican))
	ge := len(BaseNames(SourceGeneric))
	if in == 0 || am == 0 || ge == 0 {
		t.Error("some source is empty")
	}
	if in+am+ge < len(names) {
		t.Error("union larger than parts")
	}
}

func TestBuildLexiconStructure(t *testing.T) {
	lex := buildLex(t)
	if lex.Groups < 600 {
		t.Errorf("only %d groups", lex.Groups)
	}
	if len(lex.GroupSizes) != lex.Groups {
		t.Errorf("GroupSizes len %d != Groups %d", len(lex.GroupSizes), lex.Groups)
	}
	// Every group has >= 3 members (en + hi + ta, possibly more via
	// homophone merging), and sizes sum to the entry count.
	total := 0
	for tag, n := range lex.GroupSizes {
		if n < 3 {
			t.Errorf("group %d has %d members", tag, n)
		}
		total += n
	}
	if total != len(lex.Entries) {
		t.Errorf("group sizes sum %d != %d entries", total, len(lex.Entries))
	}
	// Languages are as expected and scripts match.
	for _, e := range lex.Entries {
		switch e.Text.Lang {
		case script.English:
			if script.DetectScript(e.Text.Value) != script.Latin {
				t.Errorf("non-Latin English entry %q", e.Text.Value)
			}
		case script.Hindi:
			if script.DetectScript(e.Text.Value) != script.Devanagari {
				t.Errorf("non-Devanagari Hindi entry %q", e.Text.Value)
			}
		case script.Tamil:
			if script.DetectScript(e.Text.Value) != script.TamilScript {
				t.Errorf("non-Tamil entry %q", e.Text.Value)
			}
		default:
			t.Errorf("unexpected language %v", e.Text.Lang)
		}
		if e.Tag < 0 || e.Tag >= lex.Groups {
			t.Errorf("entry tag %d out of range", e.Tag)
		}
	}
}

func TestBuildLexiconMergesHomophones(t *testing.T) {
	lex := buildLex(t)
	// Kathy and Cathy phonemize identically -> same tag.
	tags := map[string]int{}
	for _, e := range lex.Entries {
		if e.Text.Lang == script.English {
			tags[e.Text.Value] = e.Tag
		}
	}
	ka, okA := tags["Kathy"]
	ca, okB := tags["Cathy"]
	if !okA || !okB {
		t.Fatal("Kathy/Cathy missing from lexicon")
	}
	if ka != ca {
		t.Error("homophones Kathy/Cathy have different tags")
	}
	// Distinct-sounding names have distinct tags.
	if tags["Nehru"] == tags["Gandhi"] {
		t.Error("Nehru and Gandhi share a tag")
	}
}

func TestBuildLexiconFiltersShortNames(t *testing.T) {
	lex := buildLex(t)
	for _, e := range lex.Entries {
		if e.Text.Lang == script.English && len([]rune(e.Text.Value)) < minNameRunes {
			t.Errorf("short name %q survived the filter", e.Text.Value)
		}
	}
}

func TestIdealMatches(t *testing.T) {
	l := &Lexicon{Groups: 2, GroupSizes: []int{3, 4}}
	if got := l.IdealMatches(); got != 3+6 {
		t.Errorf("IdealMatches = %d, want 9", got)
	}
}

func TestTexts(t *testing.T) {
	lex := buildLex(t)
	texts := lex.Texts()
	if len(texts) != len(lex.Entries) {
		t.Fatalf("Texts len %d", len(texts))
	}
	if texts[0] != lex.Entries[0].Text {
		t.Error("Texts order broken")
	}
}

func TestGenerateSizeAndShape(t *testing.T) {
	lex := buildLex(t)
	gen := Generate(lex, 50_000)
	if len(gen) != 50_000 {
		t.Fatalf("generated %d entries", len(gen))
	}
	// Concatenations stay within one language and are roughly twice as
	// long as lexicon strings.
	op := core.MustNew(core.Options{})
	lh, _, err := Distributions(gen[:2000], op)
	if err != nil {
		t.Fatal(err)
	}
	lexLh, _, err := Distributions(lex.Entries, op)
	if err != nil {
		t.Fatal(err)
	}
	if lh.Mean() < 1.7*lexLh.Mean() {
		t.Errorf("generated mean %.2f not ~2x lexicon mean %.2f", lh.Mean(), lexLh.Mean())
	}
	for _, e := range gen[:200] {
		detected := script.DetectScript(e.Text.Value)
		if e.Text.Lang == script.English && detected != script.Latin {
			t.Errorf("cross-script concatenation %q", e.Text.Value)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	lex := buildLex(t)
	a := Generate(lex, 1000)
	b := Generate(lex, 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generation not deterministic at %d", i)
		}
	}
}

func TestGenerateExhaustion(t *testing.T) {
	// A tiny lexicon cannot fill a huge target; Generate must stop.
	small := &Lexicon{Groups: 2, GroupSizes: []int{3, 3}}
	small.Entries = []Entry{
		{Text: core.Text{Value: "Abcd", Lang: script.English}, Tag: 0},
		{Text: core.Text{Value: "Efgh", Lang: script.English}, Tag: 1},
	}
	gen := Generate(small, 1000)
	if len(gen) != 2 { // 2 strings -> 2 ordered pairs at step 1
		t.Errorf("exhaustion produced %d entries", len(gen))
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	for _, n := range []int{3, 5, 5, 7} {
		h.Add(n)
	}
	if h.Mean() != 5 {
		t.Errorf("mean = %v", h.Mean())
	}
	if got := h.Lengths(); len(got) != 3 || got[0] != 3 || got[2] != 7 {
		t.Errorf("lengths = %v", got)
	}
	if h.Counts[5] != 2 {
		t.Errorf("count[5] = %d", h.Counts[5])
	}
	if NewHistogram().Mean() != 0 {
		t.Error("empty histogram mean != 0")
	}
}

func TestDistributionsMatchPaperShape(t *testing.T) {
	// Figure 10's qualitative claims: lexicographic and phonemic
	// averages are close to each other; Figure 13: generated means are
	// about double.
	lex := buildLex(t)
	op := core.MustNew(core.Options{})
	lh, ph, err := Distributions(lex.Entries, op)
	if err != nil {
		t.Fatal(err)
	}
	if lh.Total != len(lex.Entries) || ph.Total != len(lex.Entries) {
		t.Errorf("histogram totals %d/%d", lh.Total, ph.Total)
	}
	if lh.Mean() < 5 || lh.Mean() > 9 {
		t.Errorf("lexicographic mean %.2f implausible (paper: 7.35)", lh.Mean())
	}
	if ph.Mean() < 4.5 || ph.Mean() > 9 {
		t.Errorf("phonemic mean %.2f implausible (paper: 7.16)", ph.Mean())
	}
	diff := lh.Mean() - ph.Mean()
	if diff < 0 || diff > 1.5 {
		t.Errorf("phonemic mean should be slightly below lexicographic: %.2f vs %.2f", ph.Mean(), lh.Mean())
	}
}

// The pipeline invariant the lexicon relies on: for every base name,
// the English phonemization and the round trip through each Indic
// orthography stay within the paper's operating threshold of each
// other at the default cost model. A handful of hard names may exceed
// it (the paper's own recall is not 100% either), so the test bounds
// the failure rate rather than requiring perfection.
func TestRoundTripDistanceBounded(t *testing.T) {
	lex := buildLex(t)
	op := core.MustNew(core.Options{})
	byTag := map[int][]Entry{}
	for _, e := range lex.Entries {
		byTag[e.Tag] = append(byTag[e.Tag], e)
	}
	total, bad := 0, 0
	for _, group := range byTag {
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				pi, err := op.Transform(group[i].Text.Value, group[i].Text.Lang)
				if err != nil {
					t.Fatal(err)
				}
				pj, err := op.Transform(group[j].Text.Value, group[j].Text.Lang)
				if err != nil {
					t.Fatal(err)
				}
				total++
				if !op.MatchPhonemes(pi, pj, 0.30) {
					bad++
				}
			}
		}
	}
	if rate := float64(bad) / float64(total); rate > 0.10 {
		t.Errorf("%.1f%% of same-tag pairs exceed threshold 0.30 (%d of %d)", 100*rate, bad, total)
	}
}

// TestSpellingRoundTripsNames decodes the phoneme Spelling of every
// lexicon entry and of the full generated set (the stored pname form):
// each must read back as the transform, which plain IPA fails for the
// names with /t/+/ʃ/ or /t/+/s/.
func TestSpellingRoundTripsNames(t *testing.T) {
	lex := buildLex(t)
	op := core.MustNew(core.Options{})
	check := func(set string, entries []Entry) {
		t.Helper()
		fused := 0
		for _, e := range entries {
			p, err := op.Transform(e.Text.Value, e.Text.Lang)
			if err != nil {
				continue // NORESOURCE: stored as NULL
			}
			if !phoneme.ParseLenient(p.IPA()).Equal(p) {
				fused++
			}
			if got := phoneme.ParseLenient(p.Spelling()); !got.Equal(p) {
				t.Fatalf("%s %v: Spelling %q decodes to %v, want %v", set, e.Text, p.Spelling(), got, p)
			}
		}
		if fused == 0 {
			t.Errorf("%s: no name's plain IPA fuses; expected the /t/+/ʃ/ names", set)
		}
	}
	check("lexicon", lex.Entries)
	check("generated", Generate(lex, DefaultGeneratedSize))
}
