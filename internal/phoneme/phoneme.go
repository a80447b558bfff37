// Package phoneme defines the phonemic alphabet used by the LexEQUAL
// operator: an inventory of IPA phonemes annotated with articulatory
// features, parsing of IPA text into phoneme strings, feature-based
// similarity, and the multilingual phoneme clustering that underlies the
// clustered edit distance and the phonetic index of the paper.
//
// Phonemes are small integer handles into a fixed inventory. A phoneme
// string (type String) is the unit of comparison everywhere else in the
// system: Text-To-Phoneme converters produce them, the edit-distance
// kernel consumes them, and the phonetic index is keyed by their cluster
// projection.
package phoneme

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"
)

// Phoneme is a handle into the global inventory. The zero value is
// invalid and never produced by Parse or Lookup.
type Phoneme uint8

// Invalid is the zero Phoneme; it is not part of the inventory.
const Invalid Phoneme = 0

// Class partitions the inventory into consonants and vowels.
type Class uint8

// Phoneme classes.
const (
	Consonant Class = iota + 1
	Vowel
)

func (c Class) String() string {
	switch c {
	case Consonant:
		return "consonant"
	case Vowel:
		return "vowel"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Manner of articulation for consonants.
type Manner uint8

// Consonant manners.
const (
	Plosive Manner = iota + 1
	Nasal
	Trill
	Tap
	Fricative
	Affricate
	Approximant
	Lateral
)

func (m Manner) String() string {
	names := [...]string{"", "plosive", "nasal", "trill", "tap", "fricative", "affricate", "approximant", "lateral"}
	if int(m) < len(names) && m > 0 {
		return names[m]
	}
	return fmt.Sprintf("Manner(%d)", uint8(m))
}

// Place of articulation for consonants.
type Place uint8

// Consonant places.
const (
	Bilabial Place = iota + 1
	Labiodental
	Dental
	Alveolar
	PostAlveolar
	Retroflex
	Palatal
	Velar
	LabioVelar
	Uvular
	Glottal
)

func (p Place) String() string {
	names := [...]string{"", "bilabial", "labiodental", "dental", "alveolar", "postalveolar", "retroflex", "palatal", "velar", "labiovelar", "uvular", "glottal"}
	if int(p) < len(names) && p > 0 {
		return names[p]
	}
	return fmt.Sprintf("Place(%d)", uint8(p))
}

// Height is vowel height (close = high, open = low).
type Height uint8

// Vowel heights.
const (
	Close Height = iota + 1
	NearClose
	CloseMid
	Mid
	OpenMid
	NearOpen
	Open
)

// Backness is vowel backness.
type Backness uint8

// Vowel backness values.
const (
	Front Backness = iota + 1
	Central
	Back
)

// Features is the articulatory feature bundle of a phoneme. Consonants
// use Manner/Place/Voiced/Aspirated; vowels use Height/Backness/Rounded.
// Long and Nasalized apply to vowels (length marks ː, nasal tilde).
type Features struct {
	Class     Class
	Manner    Manner
	Place     Place
	Voiced    bool
	Aspirated bool
	Height    Height
	Backness  Backness
	Rounded   bool
	Long      bool
	Nasalized bool
}

// info is one inventory entry.
type info struct {
	ipa string
	f   Features
}

// inventory holds every phoneme; index 0 is a sentinel for Invalid.
var inventory = []info{{}}

// byIPA maps the IPA spelling of each phoneme to its handle.
var byIPA = map[string]Phoneme{}

// maxSymbolLen is the longest IPA spelling in bytes (for the
// longest-match tokenizer).
var maxSymbolLen int

func register(ipa string, f Features) Phoneme {
	if _, dup := byIPA[ipa]; dup {
		panic("phoneme: duplicate inventory entry " + ipa)
	}
	if len(inventory) > 255 {
		panic("phoneme: inventory overflow")
	}
	p := Phoneme(len(inventory))
	inventory = append(inventory, info{ipa: ipa, f: f})
	byIPA[ipa] = p
	if len(ipa) > maxSymbolLen {
		maxSymbolLen = len(ipa)
	}
	return p
}

// alias registers an alternative spelling for an existing phoneme, so
// that Parse accepts it; the canonical spelling is unchanged.
func alias(spelling, canonical string) {
	p, ok := byIPA[canonical]
	if !ok {
		panic("phoneme: alias target unknown: " + canonical)
	}
	if _, dup := byIPA[spelling]; dup {
		panic("phoneme: duplicate alias " + spelling)
	}
	byIPA[spelling] = p
	if len(spelling) > maxSymbolLen {
		maxSymbolLen = len(spelling)
	}
}

// Lookup returns the phoneme whose IPA spelling is exactly ipa.
func Lookup(ipa string) (Phoneme, bool) {
	p, ok := byIPA[ipa]
	return p, ok
}

// MustLookup is Lookup that panics on unknown spellings. It is intended
// for compile-time-constant tables (TTP rules, cluster definitions).
func MustLookup(ipa string) Phoneme {
	p, ok := byIPA[ipa]
	if !ok {
		panic("phoneme: unknown IPA symbol " + ipa)
	}
	return p
}

// Count reports the number of phonemes in the inventory.
func Count() int { return len(inventory) - 1 }

// All returns every phoneme in the inventory, in registration order.
func All() []Phoneme {
	ps := make([]Phoneme, 0, Count())
	for i := 1; i < len(inventory); i++ {
		ps = append(ps, Phoneme(i))
	}
	return ps
}

// Valid reports whether p is a live inventory handle.
func (p Phoneme) Valid() bool { return p != Invalid && int(p) < len(inventory) }

// IPA returns the canonical IPA spelling of p.
func (p Phoneme) IPA() string {
	if !p.Valid() {
		return "�"
	}
	return inventory[p].ipa
}

// Features returns the articulatory features of p.
func (p Phoneme) Features() Features {
	if !p.Valid() {
		return Features{}
	}
	return inventory[p].f
}

// IsVowel reports whether p is a vowel.
func (p Phoneme) IsVowel() bool { return p.Features().Class == Vowel }

// IsConsonant reports whether p is a consonant.
func (p Phoneme) IsConsonant() bool { return p.Features().Class == Consonant }

func (p Phoneme) String() string { return p.IPA() }

// String is a phoneme string: the phonemic transcription of one name.
type String []Phoneme

// IPA renders s in IPA orthography.
func (s String) IPA() string {
	var b strings.Builder
	for _, p := range s {
		b.WriteString(p.IPA())
	}
	return b.String()
}

func (s String) String() string { return s.IPA() }

// Spelling renders s as IPA text that ParseLenient reads back as s
// exactly: s.IPA() whenever that round-trips, otherwise the IPA with the
// ignorable syllable dot between phonemes. The greedy tokenizer fuses
// some adjacent pairs into a longer inventory symbol (/t/+/ʃ/ reads back
// as /tʃ/), so stored transcriptions use this form.
func (s String) Spelling() string {
	ipa := s.IPA()
	if ParseLenient(ipa).Equal(s) {
		return ipa
	}
	var b strings.Builder
	for i, p := range s {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(p.IPA())
	}
	return b.String()
}

// Equal reports element-wise equality.
func (s String) Equal(t String) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s String) Clone() String {
	t := make(String, len(s))
	copy(t, s)
	return t
}

// Compare orders phoneme strings lexicographically by handle, giving a
// stable (if linguistically arbitrary) total order used for sorting.
func (s String) Compare(t String) int {
	n := len(s)
	if len(t) < n {
		n = len(t)
	}
	for i := 0; i < n; i++ {
		if s[i] != t[i] {
			if s[i] < t[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(s) < len(t):
		return -1
	case len(s) > len(t):
		return 1
	default:
		return 0
	}
}

// Parse tokenizes IPA text into a phoneme string using longest-match
// against the inventory. Suprasegmentals and unknown marks listed in
// ignorable (stress marks, syllable dots, tie bars) are skipped; any
// other unknown rune is an error.
func Parse(ipa string) (String, error) {
	s, bad := parse(ipa)
	if bad != "" {
		return nil, fmt.Errorf("phoneme: unknown IPA symbol %q in %q", bad, ipa)
	}
	return s, nil
}

// ParseLenient tokenizes like Parse but silently drops unknown symbols.
// The paper strips speech-generation marks (suprasegmentals, diacritics,
// tones, accents) from converter output; ParseLenient implements that
// cleanup for foreign transcriptions.
func ParseLenient(ipa string) String {
	s, _ := parse(ipa)
	return s
}

// MustParse is Parse that panics on error, for constant tables.
func MustParse(ipa string) String {
	s, err := Parse(ipa)
	if err != nil {
		panic(err)
	}
	return s
}

// ignorable are IPA marks that carry no phonemic content for matching:
// primary/secondary stress, syllable break, tie bars, length-neutral
// separators and whitespace.
var ignorable = map[rune]bool{
	'ˈ': true, 'ˌ': true, '.': true, '‿': true, '͡': true, '͜': true,
	' ': true, '\t': true, '-': true, '\'': true,
}

func parse(ipa string) (String, string) {
	var out String
	var firstBad string
	for i := 0; i < len(ipa); {
		// Longest match against the inventory.
		end := i + maxSymbolLen
		if end > len(ipa) {
			end = len(ipa)
		}
		matched := false
		for j := end; j > i; j-- {
			if p, ok := byIPA[ipa[i:j]]; ok {
				// Prefer extending with a length/nasal mark handled by
				// the inventory itself (long vowels are distinct entries),
				// so plain longest-match suffices.
				out = append(out, p)
				i = j
				matched = true
				break
			}
		}
		if matched {
			continue
		}
		r, size := utf8.DecodeRuneInString(ipa[i:])
		if !ignorable[r] && firstBad == "" {
			firstBad = string(r)
		}
		i += size
	}
	return out, firstBad
}

// Inventory returns the IPA spellings of all registered phonemes in a
// deterministic order, for diagnostics.
func Inventory() []string {
	out := make([]string, 0, Count())
	for i := 1; i < len(inventory); i++ {
		out = append(out, inventory[i].ipa)
	}
	sort.Strings(out)
	return out
}
