package main

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lexequal/internal/server"
)

// roundLen is the number of statements in one selection round. A run
// only stops at a round boundary, so every run attempts whole rounds
// and the witness statement is exactly 1/roundLen of what scan and
// qgram attempt.
const roundLen = 16

// joinStmt is the join workload's only statement.
const joinStmt = "SELECT a.id, b.id FROM names a, names b WHERE a.name LEXEQUAL b.name THRESHOLD 0.25"

// stmtOp is one statement a client sends.
type stmtOp struct {
	stmt    string
	q       *query // nil for the join
	witness bool
}

// round returns the statements of round k.
func (in *inputs) round(k int) []stmtOp {
	if in.spec.join {
		return []stmtOp{{stmt: joinStmt}}
	}
	var ops []stmtOp
	if in.witness != nil && !in.spec.mixed {
		ops = append(ops, stmtOp{stmt: in.witness.stmt, q: in.witness, witness: true})
	}
	for j := len(ops); j < roundLen; j++ {
		q := in.pool[(k*roundLen+j)%len(in.pool)]
		ops = append(ops, stmtOp{stmt: q.stmt, q: q})
	}
	return ops
}

// sessionSetup is what each client sends before its first statement.
func (in *inputs) sessionSetup() []string {
	switch {
	case in.spec.join:
		return []string{"SET PARALLELISM = 0"}
	case in.spec.strategy != "":
		return []string{"SET lexequal_strategy = " + in.spec.strategy}
	}
	return nil
}

// dispatcher hands out statements round by round until the deadline;
// a round that has started is always handed out in full.
type dispatcher struct {
	in       *inputs
	deadline time.Time
	mu       sync.Mutex
	cur      []stmtOp
	idx      int
	rounds   int
}

func (d *dispatcher) next() (stmtOp, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.idx == len(d.cur) {
		if !time.Now().Before(d.deadline) {
			return stmtOp{}, false
		}
		d.cur = d.in.round(d.rounds)
		d.rounds++
		d.idx = 0
	}
	op := d.cur[d.idx]
	d.idx++
	return op, true
}

// tally is what a phase of the closed loop measured and checked.
type tally struct {
	attempted, failed  int
	incorrect          []string
	readMS             []float64
	insertMS, deleteMS []float64
	readS, writeS      float64
	wires              []wireCall
	mu                 sync.Mutex
}

func (t *tally) bad(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.incorrect) < 20 {
		t.incorrect = append(t.incorrect, fmt.Sprintf(format, args...))
	}
}

// wireCall is one traced round trip.
type wireCall struct {
	rid        int64
	stmt       string
	start, end time.Time
	write      bool
}

// dial opens a frame-protocol connection and sends setup on it.
func dial(addr string, setup []string) (*server.Client, error) {
	c, err := server.Dial(addr)
	if err != nil {
		return nil, err
	}
	for _, s := range setup {
		if _, err := c.Query(s); err != nil {
			c.Close()
			return nil, fmt.Errorf("%s: %w", s, err)
		}
	}
	return c, nil
}

// parseRows reads the integer cells of a rendered result table (header
// and rule lines first).
func parseRows(body string) ([][]int, error) {
	lines := strings.Split(body, "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("short result %q", body)
	}
	var rows [][]int
	for _, line := range lines[2:] {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		row := make([]int, len(fields))
		for i, f := range fields {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("cell %q: %w", f, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// loop runs the closed loop of one phase: spec.clients readers pull
// statements from the dispatcher, each sending its next statement only
// after the previous answer arrived; on mixed a writer runs beside
// them until the readers stop. traced records every round trip.
func (in *inputs) loop(r *rig, w *writer, seconds float64, traced bool) (*tally, error) {
	t := &tally{}
	clients := make([]*server.Client, in.spec.clients)
	for i := range clients {
		c, err := dial(r.addr, in.sessionSetup())
		if err != nil {
			return nil, err
		}
		defer c.Close()
		clients[i] = c
	}
	d := &dispatcher{in: in, deadline: time.Now().Add(time.Duration(seconds * float64(time.Second)))}
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	var werr error
	var rid atomic.Int64
	nextRID := func() int64 { return rid.Add(1) }
	stop := make(chan struct{})
	wdone := make(chan struct{})
	start := time.Now()
	if w != nil {
		go func() {
			defer close(wdone)
			werr = w.run(t, stop, traced, nextRID)
		}()
	} else {
		close(wdone)
	}
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *server.Client) {
			defer wg.Done()
			for {
				op, ok := d.next()
				if !ok {
					return
				}
				var tSend, tRecv int64
				if w != nil {
					tSend = w.clock.Add(1)
				}
				s0 := time.Now()
				body, err := c.Query(op.stmt)
				s1 := time.Now()
				if w != nil {
					tRecv = w.clock.Add(1)
				}
				if err != nil {
					var re *server.RemoteError
					if errors.As(err, &re) {
						t.bad("%s: server error: %v", op.stmt, err)
						t.mu.Lock()
						t.attempted++
						t.failed++
						t.mu.Unlock()
						continue
					}
					errs[i] = err
					return
				}
				failed := in.check(t, op, body, w, tSend, tRecv)
				t.mu.Lock()
				t.attempted++
				if failed {
					t.failed++
				}
				t.readMS = append(t.readMS, s1.Sub(s0).Seconds()*1000)
				if traced {
					t.wires = append(t.wires, wireCall{rid: nextRID(), stmt: op.stmt, start: s0, end: s1})
				}
				t.mu.Unlock()
			}
		}(i, c)
	}
	wg.Wait()
	t.readS = time.Since(start).Seconds()
	close(stop)
	<-wdone
	if werr != nil {
		return nil, fmt.Errorf("writer: %w", werr)
	}
	return t, errors.Join(errs...)
}

// check verifies one answer against the reference and reports whether
// the statement failed because of the round-trip fault. Any other
// disagreement is recorded as incorrect.
func (in *inputs) check(t *tally, op stmtOp, body string, w *writer, tSend, tRecv int64) bool {
	rows, err := parseRows(body)
	if err != nil {
		t.bad("%s: %v", op.stmt, err)
		return false
	}
	if in.spec.join {
		return in.checkJoin(t, rows)
	}
	var ids []int
	for _, r := range rows {
		ids = append(ids, r[0])
	}
	sort.Ints(ids)
	if w != nil {
		w.checkRead(t, in, op.q, ids, tSend, tRecv)
		return false
	}
	switch {
	case equalInts(ids, op.q.want):
		return false
	case op.witness && equalInts(ids, op.q.wantDB):
		in.logFault(op.stmt, in.diffNotes(ids, op.q.want))
		return true
	}
	t.bad("%s: answer differs from the reference on %s", op.stmt, strings.Join(in.diffNotes(ids, op.q.want), "; "))
	return false
}

func (in *inputs) checkJoin(t *tally, rows [][]int) bool {
	got := make(map[[2]int]bool, len(rows))
	for _, r := range rows {
		if len(r) != 2 {
			t.bad("join row %v has %d cells", r, len(r))
			return false
		}
		got[[2]int{r[0], r[1]}] = true
	}
	same := func(want map[[2]int]bool) bool {
		if len(got) != len(want) || len(got) != len(rows) {
			return false
		}
		for pr := range got {
			if !want[pr] {
				return false
			}
		}
		return true
	}
	switch {
	case same(in.joinWant):
		return false
	case same(in.joinWantDB):
		in.logFault(joinStmt, in.joinFaultNotes())
		return true
	}
	var extra, missing []string
	for pr := range got {
		if !in.joinWantDB[pr] && len(extra) < 5 {
			extra = append(extra, fmt.Sprintf("%v", pr))
		}
	}
	for pr := range in.joinWantDB {
		if !got[pr] && len(missing) < 5 {
			missing = append(missing, fmt.Sprintf("%v", pr))
		}
	}
	t.bad("join: %d pairs, reference %d; unexplained extra %v, missing %v", len(got), len(in.joinWant), extra, missing)
	return false
}

// logFault logs a statement that failed because of the round-trip
// fault, the first time it fails in a run.
func (in *inputs) logFault(stmt string, notes []string) {
	in.faultMu.Lock()
	defer in.faultMu.Unlock()
	if in.faultLogged[stmt] {
		return
	}
	if in.faultLogged == nil {
		in.faultLogged = map[string]bool{}
	}
	in.faultLogged[stmt] = true
	fmt.Fprintf(os.Stderr, "perfbench: round-trip fault: %q answers differently from the reference on %s\n", stmt, strings.Join(notes, "; "))
}

// percentile is the nearest-rank percentile of xs (p in (0,1]).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(float64(len(s))*p+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
