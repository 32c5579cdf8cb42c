// Package fixture seeds frozensnap violations and exemptions.
package fixture

// boundStore mimics the engine's bound store: foldRow mutates, countRows
// reads. The name matters — frozensnap keys its frozen-type set on the
// engine's type names.
type boundStore struct {
	rows []int
}

func (b *boundStore) foldRow(i int) { b.rows[i]++ }

func (b *boundStore) countRows() int { return len(b.rows) }

// workers spawns certification-style worker closures exercising every
// rule: owner-indexed writes pass, captured writes and mutating method
// calls on frozen state fail.
func workers(n int) int {
	out := make([]int, n)
	var shared int
	bound := &boundStore{rows: make([]int, n)}
	done := make(chan struct{}, n)
	for w := 0; w < n; w++ {
		go func(w int) {
			out[w] = w                 // owner-indexed: allowed
			shared = w                 // want "writes captured variable shared"
			bound.rows = nil           // want "writes field rows of captured bound"
			bound.foldRow(w)           // want "calls bound.foldRow on captured boundStore state"
			if bound.countRows() > 0 { // read-only method: allowed
				out[w]++
			}
			done <- struct{}{}
		}(w)
	}
	for w := 0; w < n; w++ {
		<-done
	}
	return shared
}

// nonOwnerIndex writes through an index the worker does not own.
func nonOwnerIndex(n int) []int {
	out := make([]int, n)
	cursor := 0
	done := make(chan struct{}, n)
	for w := 0; w < n; w++ {
		go func(w int) {
			out[cursor] = w // want "non-owner index"
			done <- struct{}{}
		}(w)
	}
	for w := 0; w < n; w++ {
		<-done
	}
	return out
}

// annotatedFold documents an owner-partitioned fold, the sanctioned
// exemption shape.
func annotatedFold(n int) {
	bound := &boundStore{rows: make([]int, n)}
	done := make(chan struct{}, n)
	for w := 0; w < n; w++ {
		go func(w int) {
			//spannerlint:ignore frozensnap fixture rows are owner-partitioned, one row per worker
			bound.foldRow(w)
			done <- struct{}{}
		}(w)
	}
	for w := 0; w < n; w++ {
		<-done
	}
}

// localState shows worker-local mutation is unrestricted.
func localState(n int) {
	done := make(chan struct{}, n)
	for w := 0; w < n; w++ {
		go func(w int) {
			local := make([]int, 4)
			local[0] = w
			acc := 0
			acc += w
			_ = acc
			done <- struct{}{}
		}(w)
	}
	for w := 0; w < n; w++ {
		<-done
	}
}

// Stats mimics the engines' one stats struct; ParallelStats is an alias
// name, which the frozen-type check resolves before matching.
type Stats struct{ Kept int }

type ParallelStats = Stats

func (s *Stats) reset() { *s = Stats{} } // want "worker callee reset writes through captured pointer s"

// certifier mimics the scan driver's per-mode certification interface:
// its snapshot is what a worker runs.
type certifier interface{ snapshot(w int) }

// rowCert is the in-package implementation a worker reaches through
// certifier: its receiver is shared state, its parameters the worker's.
type rowCert struct {
	bound *boundStore
	stats *Stats
	out   []int
	last  int
}

func (c *rowCert) snapshot(w int) {
	c.out[w] = w       // owner-indexed: allowed
	c.last = w         // want "worker callee snapshot writes field last of captured c"
	c.bound.foldRow(w) // want "worker callee snapshot calls c.bound.foldRow on captured boundStore state"
	if c.bound.countRows() > 0 {
		c.out[w]++
	}
	st := c.stats // a local alias of shared stats
	st.Kept = w   // want "worker callee snapshot writes field Kept of frozen Stats"
}

// bump is a plain function a worker calls; writing its own parameter's
// slot is allowed, writing package state is not.
func bump(out []int, w int) {
	out[w]++
	tally++ // want "worker callee bump writes captured variable tally"
}

var tally int

// drive spawns workers that call one level down: through the interface,
// through a plain function, and on an aliased frozen type.
func drive(c certifier, st *ParallelStats, n int) {
	out := make([]int, n)
	done := make(chan struct{}, n)
	for w := 0; w < n; w++ {
		go func(w int) {
			c.snapshot(w)
			bump(out, w)
			st.reset() // want "worker closure calls st.reset on captured Stats state"
			done <- struct{}{}
		}(w)
	}
	for w := 0; w < n; w++ {
		<-done
	}
}

// HubOracle mimics the engine's hub oracle: Certify looks like a query,
// but it syncs the arrays and moves the scan start, so it is no read-only
// method of a shared oracle.
type HubOracle struct{ lastHit int }

func (o *HubOracle) Certify(u, v int) bool {
	o.lastHit = u // want "worker callee Certify writes field lastHit of captured o"
	return u != v
}

// hubWorkers certifies from workers on a captured oracle.
func hubWorkers(o *HubOracle, n int) []bool {
	out := make([]bool, n)
	done := make(chan struct{}, n)
	for w := 0; w < n; w++ {
		go func(w int) {
			out[w] = o.Certify(w, 0) // want "calls o.Certify on captured HubOracle state"
			done <- struct{}{}
		}(w)
	}
	for w := 0; w < n; w++ {
		<-done
	}
	return out
}

// tallyWorker and record are goroutine bodies started by name rather than
// as literals: the go statement's callee is the worker, so its package
// state and its receiver are shared.
func tallyWorker(w int, done chan<- struct{}) {
	tally += w // want "worker callee tallyWorker writes captured variable tally"
	done <- struct{}{}
}

func (c *rowCert) record(w int, done chan<- struct{}) {
	c.last = w // want "worker callee record writes field last of captured c"
	done <- struct{}{}
}

// spawnNamed starts workers through named functions and methods.
func spawnNamed(c *rowCert, bound *boundStore, n int) {
	done := make(chan struct{}, 3*n)
	for w := 0; w < n; w++ {
		go tallyWorker(w, done)
		go c.record(w, done)
		go bound.foldRow(w) // want "go statement calls bound.foldRow on captured boundStore state"
		done <- struct{}{}
	}
	for w := 0; w < 3*n; w++ {
		<-done
	}
}

// feed is state a producer goroutine owns outright: handed over by
// parameter and returned only through its channel, so the producer may
// write it freely.
type feed struct {
	next int
	buf  []int
}

func produce(f *feed, out chan<- []int, done chan<- struct{}) {
	defer close(done)
	for i := 0; i < 3; i++ {
		f.next++
		f.buf = append(f.buf[:0], f.next)
		out <- f.buf
	}
	close(out)
}

var feeds int

// newFeed runs in the spawning goroutine, as every argument of a go
// statement does, so its package-state write is no worker's.
func newFeed() *feed {
	feeds++
	return &feed{}
}

// startProducer hands a fresh feed to its producer and keeps no alias.
func startProducer() int {
	out, done := make(chan []int), make(chan struct{})
	go produce(newFeed(), out, done)
	sum := 0
	for b := range out {
		sum += b[0]
	}
	<-done
	return sum
}
