package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// outcome is one request's result as the benchmark judges it.
type outcome struct {
	err     error  // the call failed: transport error, non-2xx, shed, degraded
	bad     string // the call answered, but the answer failed an output check
	flagged bool   // the verdict flagged the transaction (fraud, or a non-approve action)
}

// doFunc performs one item. root is the request's trace root (nil when
// the run is untraced).
type doFunc func(ctx context.Context, it *item, root *span) outcome

// phaseResult is one open-loop phase, measured exactly: one latency
// sample per request sent.
type phaseResult struct {
	rate     float64
	items    []item
	outcomes []outcome
	roots    []*span         // per item: its trace root, in a traced phase
	latency  samples         // completion minus scheduled arrival, sorted
	at       []time.Duration // scheduled arrival of each latency sample, unsorted order
	raw      []int64         // the latency samples in at's order
	lateness samples         // generator lateness: wake-up minus scheduled arrival, for requests an idle worker waited for
	failed   int64           // errors plus failed output checks
	firstErr string
	wall     time.Duration
}

// sleeper parks a goroutine until a deadline on a timerfd that the
// runtime's network poller watches, then spins out the last stretch. The
// Go runtime's own timers round to the scheduler's millisecond poll and
// oversleep by most of a millisecond; a timerfd wakes within tens of
// microseconds, and unlike a nanosleep system call it gives the
// processor back while it waits. Waking spinWindow early and yielding
// until the deadline absorbs the rest, including the cost of waking an
// idle virtual CPU, which varies with the host's load and would
// otherwise set the light-load latency.
type sleeper struct {
	fd  uintptr
	f   *os.File
	buf [8]byte
}

type itimerspec struct{ interval, value syscall.Timespec }

const clockMonotonic = 1

func newSleeper() (*sleeper, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &sleeper{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// spinWindow is how early a sleeper wakes to spin: above the timerfd's
// p99 oversleep on a loaded 2-core host.
const spinWindow = 300 * time.Microsecond

// until returns at t, or at once if t has passed.
func (s *sleeper) until(t time.Time) error {
	if d := time.Until(t) - spinWindow; d > 0 {
		spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
		if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
			return fmt.Errorf("timerfd_settime: %w", errno)
		}
		if _, err := s.f.Read(s.buf[:]); err != nil {
			return err
		}
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
	return nil
}

func (s *sleeper) close() { s.f.Close() }

// runOpen drives items open-loop with workers requests at most
// outstanding: each worker takes the next item in schedule order and, if
// it is early, sleeps until the item's arrival. A request that arrives
// while every worker is busy waits, and latency runs from the scheduled
// arrival, so that wait counts.
func runOpen(ctx context.Context, items []item, workers int, tr *tracer, do doFunc) (*phaseResult, error) {
	n := len(items)
	sleepers := make([]*sleeper, workers)
	for w := range sleepers {
		sl, err := newSleeper()
		if err != nil {
			return nil, err
		}
		defer sl.close()
		sleepers[w] = sl
	}
	res := &phaseResult{items: items, outcomes: make([]outcome, n), roots: make([]*span, n)}
	lat := make([]int64, n)
	lag := make([]int64, n)
	sent := make([]bool, n)
	slept := make([]bool, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	var sleepErr atomic.Pointer[error]
	start := time.Now().Add(2 * time.Millisecond)
	for _, sl := range sleepers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				it := &items[i]
				due := start.Add(it.at)
				if time.Now().Before(due) {
					if err := sl.until(due); err != nil {
						sleepErr.Store(&err)
						return
					}
					slept[i] = true
				}
				begin := time.Now()
				lag[i] = int64(begin.Sub(due))
				root := tr.begin("request", due)
				res.roots[i] = root
				tr.child(root, "bench.wait", due, begin)
				res.outcomes[i] = do(ctx, it, root)
				done := time.Now()
				tr.end(root, done)
				lat[i] = int64(done.Sub(due))
				sent[i] = true
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	var keptLat, keptLate samples
	for i := range items {
		if !sent[i] {
			continue
		}
		keptLat = append(keptLat, lat[i])
		res.at = append(res.at, items[i].at)
		if slept[i] {
			keptLate = append(keptLate, lag[i])
		}
		o := &res.outcomes[i]
		if o.err != nil || o.bad != "" {
			res.failed++
			if res.firstErr == "" {
				if o.err != nil {
					res.firstErr = o.err.Error()
				} else {
					res.firstErr = o.bad
				}
			}
		}
	}
	res.raw = keptLat
	res.latency = keptLat.sorted()
	res.lateness = keptLate.sorted()
	if err := sleepErr.Load(); err != nil {
		return nil, *err
	}
	return res, nil
}

// window is the stretch of a phase each latency quantile is taken over. A
// phase reports the median of its windows' quantiles, so one stall — a
// garbage collection, a core lent to a neighbour — moves one window's
// figure, not the phase's.
const window = time.Second

// windowed returns the median over windows of each window's q-quantile
// of vals, where at places each value in time, in milliseconds.
func windowed(vals []int64, at []time.Duration, q float64) float64 {
	var groups []samples
	for i, v := range vals {
		w := int(at[i] / window)
		for len(groups) <= w {
			groups = append(groups, nil)
		}
		groups[w] = append(groups[w], v)
	}
	var qs samples
	for _, g := range groups {
		if len(g) > 0 {
			qs = append(qs, quantile(g.sorted(), q))
		}
	}
	return qs.sorted().ms(0.5)
}

// ms is the phase's latency q-quantile: the median over its windows.
func (p *phaseResult) ms(q float64) float64 { return windowed(p.raw, p.at, q) }

// closedResult is one saturation phase.
type closedResult struct {
	sent, failed int64
	first        string
	wall         time.Duration
}

// runClosed keeps workers requests outstanding for d, each worker sending
// the next item as soon as its last one answers, cycling through items.
// Capacity is taken over the whole phase, not its median second: the
// stalls that bound it (garbage collection, event-log snapshots) recur
// about once a second, so a second's count depends on where they fell.
func runClosed(ctx context.Context, items []item, workers int, d time.Duration, do doFunc) closedResult {
	var next, sent, failed atomic.Int64
	var mu sync.Mutex
	var first string
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d && ctx.Err() == nil {
				o := do(ctx, &items[int(next.Add(1)-1)%len(items)], nil)
				sent.Add(1)
				if o.err != nil || o.bad != "" {
					failed.Add(1)
					mu.Lock()
					if first == "" {
						first = fmt.Sprint(o.err, o.bad)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return closedResult{sent: sent.Load(), failed: failed.Load(), first: first, wall: time.Since(start)}
}

// sent counts the requests the phase actually issued.
func (p *phaseResult) sent() int { return len(p.latency) }
