package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/replicate"
)

// follower is the benchmark's own replication stream: it attaches to
// GET /v1/replicate like a hot standby would, decodes every frame with
// journal.ReadFrame + replicate.Decode, and checks that event sequence
// numbers arrive gapless. It applies nothing — a real second reapd
// would put a third busy process on the two CPUs.
type follower struct {
	conn  net.Conn
	hello chan struct{} // closed when the hello frame arrives
	done  chan struct{} // closed when the reader goroutine exits

	mu         sync.Mutex
	last       uint64 // newest event seq applied (or snapshot base)
	events     int    // event frames
	frames     int    // every frame, hellos and heartbeats included
	frameBytes int    // framed bytes of every frame
	gaps       int    // event frames whose seq ≠ last+1
	keep       bool   // retain event payloads (traced runs)
	payloads   [][]byte
	err        error
}

// attachFollower opens the stream from sequence from.
func attachFollower(addr string, from uint64, keep bool) (*follower, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("replicate dial: %w", err)
	}
	req := fmt.Sprintf("GET /v1/replicate?from=%d&id=perfbench HTTP/1.1\r\nHost: %s\r\n\r\n", from, addr)
	if _, err := io.WriteString(conn, req); err != nil {
		conn.Close()
		return nil, fmt.Errorf("replicate request: %w", err)
	}
	f := &follower{conn: conn, hello: make(chan struct{}), done: make(chan struct{}), last: from, keep: keep}
	go f.read()
	return f, nil
}

func (f *follower) read() {
	defer close(f.done)
	br := bufio.NewReaderSize(f.conn, 64<<10)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		f.fail(fmt.Errorf("replicate response: %w", err))
		return
	}
	if resp.StatusCode != http.StatusOK {
		f.fail(fmt.Errorf("replicate response: status %d", resp.StatusCode))
		return
	}
	body := bufio.NewReaderSize(resp.Body, 64<<10)
	helloSeen := false
	for {
		payload, err := journal.ReadFrame(body)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				f.fail(fmt.Errorf("replicate frame: %w", err))
			}
			return
		}
		m, err := replicate.Decode(payload)
		if err != nil {
			f.fail(err)
			return
		}
		f.mu.Lock()
		f.frames++
		f.frameBytes += len(payload) + frameOverhead
		switch m.Kind {
		case replicate.KindHello:
			if !helloSeen {
				helloSeen = true
				close(f.hello)
			}
		case replicate.KindSnapshot:
			f.last = m.Seq
		case replicate.KindEvent:
			if m.Seq != f.last+1 {
				f.gaps++
			}
			f.last = m.Seq
			f.events++
			if f.keep {
				f.payloads = append(f.payloads, append([]byte(nil), m.Payload...))
			}
		}
		f.mu.Unlock()
	}
}

func (f *follower) fail(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = err
	}
}

// waitHello blocks until the hello frame arrives.
func (f *follower) waitHello(timeout time.Duration) error {
	select {
	case <-f.hello:
		return nil
	case <-f.done:
		return fmt.Errorf("replicate stream ended before hello: %v", f.snapshot().err)
	case <-time.After(timeout):
		return errors.New("replicate stream: no hello frame")
	}
}

// followerState is a consistent copy of the stream counters.
type followerState struct {
	last       uint64
	events     int
	frames     int
	frameBytes int
	gaps       int
	err        error
}

func (f *follower) snapshot() followerState {
	f.mu.Lock()
	defer f.mu.Unlock()
	return followerState{f.last, f.events, f.frames, f.frameBytes, f.gaps, f.err}
}

// waitSeq waits until the stream has delivered every event through seq.
func (f *follower) waitSeq(seq uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st := f.snapshot()
		switch {
		case st.err != nil:
			return st.err
		case st.last >= seq:
			return nil
		case time.Now().After(deadline):
			return fmt.Errorf("replicate stream at seq %d, journal at %d after %v", st.last, seq, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// takePayloads returns and forgets the retained event payloads.
func (f *follower) takePayloads() [][]byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := f.payloads
	f.payloads = nil
	return p
}

// close tears the stream down and waits for the reader to exit.
func (f *follower) close() {
	f.conn.Close()
	<-f.done
}
