package phoneme

import (
	"testing"
	"testing/quick"
)

func TestLookupKnownSymbols(t *testing.T) {
	for _, ipa := range []string{"p", "b", "tʃ", "dʒ", "ə", "aː", "ɑ̃", "ʈʰ", "ŋ", "w"} {
		p, ok := Lookup(ipa)
		if !ok {
			t.Fatalf("Lookup(%q) not found", ipa)
		}
		if got := p.IPA(); got != ipa {
			t.Errorf("Lookup(%q).IPA() = %q", ipa, got)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("ξ"); ok {
		t.Error("Lookup of non-IPA symbol succeeded")
	}
	if _, ok := Lookup(""); ok {
		t.Error("Lookup of empty string succeeded")
	}
}

func TestAliasesResolveToCanonical(t *testing.T) {
	g1 := MustLookup("g")
	g2 := MustLookup("ɡ")
	if g1 != g2 {
		t.Errorf("ASCII g and IPA ɡ are distinct phonemes: %d vs %d", g1, g2)
	}
	if g1.IPA() != "ɡ" {
		t.Errorf("canonical spelling of aliased g = %q, want ɡ", g1.IPA())
	}
	if MustLookup("ʧ") != MustLookup("tʃ") {
		t.Error("legacy ʧ does not alias tʃ")
	}
}

func TestParseLongestMatch(t *testing.T) {
	// "tʃ" must parse as one affricate, not t+ʃ.
	s, err := Parse("tʃa")
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 2 {
		t.Fatalf("Parse(tʃa) = %v (%d phonemes), want 2", s, len(s))
	}
	if s[0] != MustLookup("tʃ") {
		t.Errorf("first phoneme = %s, want tʃ", s[0])
	}
	// Long vowel must win over short vowel + stray mark.
	s = MustParse("aːm")
	if len(s) != 2 || s[0] != MustLookup("aː") {
		t.Errorf("Parse(aːm) = %v, want [aː m]", s)
	}
	// Aspirated stop must win over plain stop.
	s = MustParse("kʰa")
	if len(s) != 2 || s[0] != MustLookup("kʰ") {
		t.Errorf("Parse(kʰa) = %v, want [kʰ a]", s)
	}
}

func TestParseIgnoresSuprasegmentals(t *testing.T) {
	s, err := Parse("ˈneɪ.ru")
	if err != nil {
		t.Fatalf("Parse with stress/syllable marks: %v", err)
	}
	want := MustParse("neɪru")
	if !s.Equal(want) {
		t.Errorf("got %v want %v", s, want)
	}
}

func TestParseUnknownSymbolErrors(t *testing.T) {
	if _, err := Parse("na#ru"); err == nil {
		t.Error("Parse accepted '#'")
	}
	if got := ParseLenient("na#ru"); got.IPA() != "naru" {
		t.Errorf("ParseLenient(na#ru) = %q, want naru", got.IPA())
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, ipa := range []string{"dʒəvaːɦərlaːl", "neːru", "junəvɜrsɪti", "ɛspanjøl", "haɪdrədʒən"} {
		s, err := Parse(ipa)
		if err != nil {
			t.Fatalf("Parse(%q): %v", ipa, err)
		}
		if got := s.IPA(); got != ipa {
			t.Errorf("round trip %q -> %q", ipa, got)
		}
	}
}

func TestStringCompare(t *testing.T) {
	// Ordering is by inventory handle; p was registered before b.
	lo, hi := MustLookup("p"), MustLookup("b")
	if lo >= hi {
		lo, hi = hi, lo
	}
	a := String{lo, lo, lo}
	b := String{lo, lo, hi}
	if a.Compare(b) >= 0 || b.Compare(a) <= 0 {
		t.Error("Compare ordering wrong")
	}
	if a.Compare(a) != 0 {
		t.Error("Compare(a,a) != 0")
	}
	short := String{lo, lo}
	if short.Compare(a) >= 0 {
		t.Error("prefix should sort before extension")
	}
}

func TestStringCloneIndependent(t *testing.T) {
	a := MustParse("aba")
	b := a.Clone()
	b[0] = MustLookup("d")
	if a[0] == b[0] {
		t.Error("Clone shares backing array")
	}
}

func TestFeatureSanity(t *testing.T) {
	cases := []struct {
		ipa    string
		class  Class
		manner Manner
		place  Place
		voiced bool
	}{
		{"p", Consonant, Plosive, Bilabial, false},
		{"bʱ", Consonant, Plosive, Bilabial, true},
		{"dʒ", Consonant, Affricate, PostAlveolar, true},
		{"ɳ", Consonant, Nasal, Retroflex, true},
		{"ʂ", Consonant, Fricative, Retroflex, false},
		{"w", Consonant, Approximant, LabioVelar, true},
	}
	for _, c := range cases {
		f := MustLookup(c.ipa).Features()
		if f.Class != c.class || f.Manner != c.manner || f.Place != c.place || f.Voiced != c.voiced {
			t.Errorf("%s features = %+v", c.ipa, f)
		}
	}
	if !MustLookup("aː").Features().Long {
		t.Error("aː not marked long")
	}
	if !MustLookup("ɑ̃").Features().Nasalized {
		t.Error("ɑ̃ not marked nasalized")
	}
	if !Schwa.IsVowel() {
		t.Error("schwa is not a vowel")
	}
}

func TestAllPhonemesHaveClass(t *testing.T) {
	for _, p := range All() {
		if f := p.Features(); f.Class != Consonant && f.Class != Vowel {
			t.Errorf("%s has no class", p.IPA())
		}
		if p.IsVowel() == p.IsConsonant() {
			t.Errorf("%s is both or neither vowel/consonant", p.IPA())
		}
	}
}

func TestInvalidPhoneme(t *testing.T) {
	if Invalid.Valid() {
		t.Error("Invalid reported valid")
	}
	if Invalid.IPA() != "�" {
		t.Errorf("Invalid.IPA() = %q", Invalid.IPA())
	}
	if Phoneme(250).Valid() && Count() < 250 {
		t.Error("out-of-range phoneme reported valid")
	}
}

func TestInventoryCountMatchesAll(t *testing.T) {
	if len(All()) != Count() {
		t.Errorf("All()=%d Count()=%d", len(All()), Count())
	}
	if Count() < 80 {
		t.Errorf("inventory suspiciously small: %d", Count())
	}
}

// Property: rendering is idempotent through the tokenizer. Structural
// equality cannot hold in general (t followed by ʃ renders as "tʃ",
// which re-tokenizes as the affricate — longest match is deliberate),
// but Parse(s.IPA()).IPA() == s.IPA() must always hold.
func TestQuickParseRenderIdempotent(t *testing.T) {
	all := All()
	f := func(idx []uint8) bool {
		s := make(String, 0, len(idx))
		for _, i := range idx {
			s = append(s, all[int(i)%len(all)])
		}
		back, err := Parse(s.IPA())
		return err == nil && back.IPA() == s.IPA()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Compare is a total order consistent with Equal.
func TestQuickCompareConsistency(t *testing.T) {
	all := All()
	mk := func(idx []uint8) String {
		s := make(String, 0, len(idx))
		for _, i := range idx {
			s = append(s, all[int(i)%len(all)])
		}
		return s
	}
	f := func(ia, ib []uint8) bool {
		a, b := mk(ia), mk(ib)
		c1, c2 := a.Compare(b), b.Compare(a)
		if a.Equal(b) != (c1 == 0) {
			return false
		}
		return c1 == -c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSimilarityBounds(t *testing.T) {
	all := All()
	for _, a := range all {
		for _, b := range all {
			s := Similarity(a, b)
			if s < 0 || s > 1 {
				t.Fatalf("Similarity(%s,%s) = %v out of range", a, b, s)
			}
			if s != Similarity(b, a) {
				t.Fatalf("Similarity not symmetric for %s,%s", a, b)
			}
		}
	}
	if Similarity(MustLookup("p"), MustLookup("p")) != 1 {
		t.Error("self-similarity != 1")
	}
	if Similarity(MustLookup("p"), MustLookup("a")) != 0 {
		t.Error("consonant/vowel similarity != 0")
	}
}

func TestSimilarityOrdering(t *testing.T) {
	p, b, k, s := MustLookup("p"), MustLookup("b"), MustLookup("k"), MustLookup("s")
	if Similarity(p, b) <= Similarity(p, k) {
		t.Error("p~b should exceed p~k (voicing-only vs place change)")
	}
	if Similarity(p, b) <= Similarity(p, s) {
		t.Error("p~b should exceed p~s")
	}
	i, ii, u := MustLookup("i"), MustLookup("iː"), MustLookup("u")
	if Similarity(i, ii) <= Similarity(i, u) {
		t.Error("i~iː should exceed i~u")
	}
}

// TestSpellingRoundTripsInventoryPairs decodes the Spelling of every
// phoneme and every ordered pair of the inventory: the greedy decoder
// must read each back exactly, including pairs such as /t/+/ʃ/ whose
// plain IPA fuses into a longer symbol.
func TestSpellingRoundTripsInventoryPairs(t *testing.T) {
	all := All()
	fused := 0
	for _, a := range all {
		if got := ParseLenient(String{a}.Spelling()); !got.Equal(String{a}) {
			t.Fatalf("%v: Spelling %q decodes to %v", a, String{a}.Spelling(), got)
		}
		for _, b := range all {
			s := String{a, b}
			if !ParseLenient(s.IPA()).Equal(s) {
				fused++
			}
			if got := ParseLenient(s.Spelling()); !got.Equal(s) {
				t.Fatalf("%v+%v: Spelling %q decodes to %v", a, b, s.Spelling(), got)
			}
		}
	}
	if fused == 0 {
		t.Error("no inventory pair fuses under plain IPA; the dotted spelling is untested")
	}
	// A string that round-trips keeps its plain IPA.
	if s := MustParse("neːru"); s.Spelling() != "neːru" {
		t.Errorf("Spelling(neːru) = %q", s.Spelling())
	}
	ts := String{MustLookup("t"), MustLookup("ʃ")}
	if got := ts.Spelling(); got != "t.ʃ" {
		t.Errorf("Spelling(t+ʃ) = %q, want t.ʃ", got)
	}
}
