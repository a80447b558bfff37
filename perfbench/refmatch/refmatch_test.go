package refmatch

import (
	"testing"

	"lexequal/internal/core"
	"lexequal/internal/phoneme"
	"lexequal/internal/script"
)

func transform(t *testing.T, op *core.Operator, text string, lang script.Language) phoneme.String {
	t.Helper()
	p, err := op.Transform(text, lang)
	if err != nil {
		t.Fatalf("transform %s: %v", text, err)
	}
	return p
}

func TestIdenticalIsZero(t *testing.T) {
	op := core.MustNew(core.Options{})
	for _, name := range []string{"Nehru", "RobertSharon", "Stephanie"} {
		p := transform(t, op, name, script.English)
		if d := New(op.Cost()).Distance(p, p); d != 0 {
			t.Errorf("Distance(%s, %s) = %v, want 0", p, p, d)
		}
	}
}

func TestSymmetric(t *testing.T) {
	op := core.MustNew(core.Options{})
	texts := []core.Text{
		{Value: "Nehru", Lang: script.English},
		{Value: "नेहरु", Lang: script.Hindi},
		{Value: "நேரு", Lang: script.Tamil},
		{Value: "RobertsTracy", Lang: script.English},
		{Value: "RobertsStephanie", Lang: script.English},
	}
	for _, a := range texts {
		for _, b := range texts {
			pa, pb := transform(t, op, a.Value, a.Lang), transform(t, op, b.Value, b.Lang)
			if d1, d2 := New(op.Cost()).Distance(pa, pb), New(op.Cost()).Distance(pb, pa); d1 != d2 {
				t.Errorf("Distance(%s, %s) = %v but reversed = %v", a, b, d1, d2)
			}
		}
	}
}

func TestEmptyCostsIndels(t *testing.T) {
	op := core.MustNew(core.Options{})
	p := transform(t, op, "Nehru", script.English)
	var want float64
	for _, x := range p {
		want += op.Cost().Del(x)
	}
	if d := New(op.Cost()).Distance(p, nil); d != want {
		t.Errorf("Distance(%s, empty) = %v, want %v", p, d, want)
	}
}

// TestRobertSharon pins the hand-checked alignment behind the stored
// pname round-trip fault: /t/+/ʃ/ is stored as "tʃ", which reads back
// as the affricate, so the db plans see a pair 2.5 apart that is 2.75
// apart under the TTP output.
func TestRobertSharon(t *testing.T) {
	op := core.MustNew(core.Options{})
	a := transform(t, op, "RobertSharon", script.English)
	b := transform(t, op, "राजरशैरान", script.Hindi)
	if a.IPA() != "rɒbərtʃɛrɒn" || b.IPA() != "raːdʒərʃɛːraːn" {
		t.Fatalf("transforms are %s and %s", a.IPA(), b.IPA())
	}
	if len(a) != 11 || len(b) != 10 {
		t.Fatalf("lengths %d and %d, want 11 and 10", len(a), len(b))
	}
	if d := New(op.Cost()).Distance(a, b); d != 2.75 {
		t.Errorf("Distance = %v, want 2.75", d)
	}
	if bound := Bound(a, b, 0.25); bound != 2.5 {
		t.Errorf("Bound = %v, want 2.5", bound)
	}
	if New(op.Cost()).Match(a, b, 0.25) {
		t.Error("RobertSharon matches राजरशैरान at 0.25; the reference says it must not")
	}
	rt := phoneme.ParseLenient(a.IPA())
	if len(rt) != 10 || !New(op.Cost()).Match(rt, b, 0.25) {
		t.Errorf("round-tripped %v (len %d) should match within 2.5", rt, len(rt))
	}
}
