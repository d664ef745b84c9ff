package main

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one timed request: when it was due, when it went out and when
// its response was read, all relative to the phase start.
type sample struct {
	rq              *request
	due, sent, done time.Duration
	status          int
	xcache          string
	body            []byte
	err             error
	// failure is set by the checker; verified marks a response the
	// generator already checked and dropped the body of.
	failure  string
	verified bool
}

func (s *sample) latency() time.Duration { return s.done - s.due }
func (s *sample) lag() time.Duration     { return s.sent - s.due }

// phase is the outcome of one load phase.
type phase struct {
	samples []*sample
	elapsed time.Duration
}

// runOpen sends reqs on a fixed schedule, one every 1/rate seconds,
// whatever the responses do: any of conns connections that is free takes
// the next due request. Latency counts from the due time, so a stall also
// charges the requests queued behind it.
func runOpen(ctx context.Context, client *http.Client, base string, reqs []request, rate float64, conns int, onDone func(*sample)) *phase {
	ph := &phase{samples: make([]*sample, len(reqs))}
	gap := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The sender keeps its own thread with a 1 ns timer slack, so
			// nanosleep wakes within microseconds of the due time instead of
			// the default 50 µs slack.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			// Best effort: without it the sleeps are only less precise.
			_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				s := &sample{rq: &reqs[i], due: time.Duration(i) * gap}
				sleepUntil(start.Add(s.due))
				send(ctx, client, base, start, s)
				onDone(s)
				ph.samples[i] = s
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.samples = compact(ph.samples)
	return ph
}

// runClosed keeps conns connections busy: each sends its next request as
// soon as the previous answer is read, until more() says stop. Requests
// come from gen in index order starting at first.
func runClosed(ctx context.Context, client *http.Client, base string, gen func(i int) request,
	first, conns int, more func(started int, elapsed time.Duration) bool, onDone func(*sample)) *phase {
	var (
		mu      sync.Mutex
		samples []*sample
		next    atomic.Int64
		wg      sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if !more(i, time.Since(start)) {
					return
				}
				rq := gen(first + i)
				s := &sample{rq: &rq, due: time.Since(start)}
				send(ctx, client, base, start, s)
				onDone(s)
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return &phase{samples: samples, elapsed: time.Since(start)}
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK option.
const prSetTimerSlack = 29

// sleepUntil blocks the calling thread in nanosleep until t. The runtime's
// own timers wake on millisecond epoll ticks, which would put up to a
// millisecond of generator lag on every sub-millisecond gap; nanosleep
// overshoots by the calling thread's timer slack.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
}

func send(ctx context.Context, client *http.Client, base string, start time.Time, s *sample) {
	s.sent = time.Since(start)
	s.status, s.xcache, s.body, s.err = post(ctx, client, base, s.rq.body)
	s.done = time.Since(start)
}

// compact drops the slots of requests never sent (cancelled runs).
func compact(in []*sample) []*sample {
	out := in[:0]
	for _, s := range in {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}
