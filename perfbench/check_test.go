package main

import (
	"strings"
	"testing"

	"lexequal/internal/core"
	"lexequal/internal/phoneme"
)

func TestParseRows(t *testing.T) {
	body := "id  id  \n--  --  \n3   7   \n12  3   \n"
	rows, err := parseRows(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0] != 3 || rows[0][1] != 7 || rows[1][0] != 12 {
		t.Fatalf("rows = %v", rows)
	}
	if rows, err := parseRows("id  \n--  \n"); err != nil || len(rows) != 0 {
		t.Fatalf("empty answer: %v, %v", rows, err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if got := median(xs); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := percentile(xs, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
}

// TestCheckRead walks the mixed snapshot rule through each state an
// inserted row can be in when a read is sent at tick 10 and answered at
// tick 20.
func TestCheckRead(t *testing.T) {
	in := &inputs{
		loaded:  make([]core.Text, 2),
		phon:    make([]phoneme.String, 2),
		inserts: make([]core.Text, 6),
	}
	q := &query{stmt: "q", want: []int{1}, insWant: []bool{true, false, true, true, true, true}}
	w := &writer{in: in, lives: []rowLife{
		{insSent: 1, insAck: 2},                          // id 2: visible, matches
		{insSent: 3, insAck: 4},                          // id 3: visible, no match
		{insSent: 5, insAck: 6, delSent: 7, delAck: 8},   // id 4: deleted before the send
		{insSent: 12, insAck: 15},                        // id 5: insert in flight
		{insSent: 25},                                    // id 6: sent after the answer
		{insSent: 1, insAck: 2, delSent: 11, delAck: 13}, // id 7: delete in flight
	}}
	cases := []struct {
		ids []int
		bad string
	}{
		{ids: []int{1, 2}},
		{ids: []int{1, 2, 5, 7}},
		{ids: []int{2}, bad: "differs from the reference"},
		{ids: []int{1}, bad: "missed inserted row 2"},
		{ids: []int{1, 2, 3}, bad: "returned inserted row 3"},
		{ids: []int{1, 2, 4}, bad: "returned inserted row 4"},
		{ids: []int{1, 2, 6}, bad: "returned inserted row 6"},
		{ids: []int{1, 2, 9}, bad: "never inserted"},
	}
	for _, c := range cases {
		tl := &tally{}
		w.checkRead(tl, in, q, c.ids, 10, 20)
		got := strings.Join(tl.incorrect, "; ")
		if (c.bad == "") != (got == "") || !strings.Contains(got, c.bad) {
			t.Errorf("ids %v: incorrect = %q, want %q", c.ids, got, c.bad)
		}
	}
}
