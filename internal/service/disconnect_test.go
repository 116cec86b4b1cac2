package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/wire"
)

// TestTelemetryDisconnectMidStream opens real TCP telemetry streams and
// vanishes mid-line, the way battery-powered clients do: each stream
// carries one complete event and then a partial trailing line cut off
// by an abrupt close. The contract: the complete event is processed
// (steps counter moves), the partial line is never half-parsed (no
// extra step, no malformed-event error), and every handler goroutine
// winds down — an abandoned stream may not pin a goroutine.
//
// The responses are deliberately not read: the observable effects —
// counters and goroutine count — are the contract here; response
// framing per event is covered by TestTelemetryStream,
// TestTelemetryInterleavedFullDuplex and the handler-level test below.
func TestTelemetryDisconnectMidStream(t *testing.T) {
	svc := newTestService(t, Config{Devices: 8, BatteryJ: 20, CapacityJ: 100})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	baseline := runtime.NumGoroutine()

	const streams = 5
	for i := 0; i < streams; i++ {
		conn, err := net.Dial("tcp", strings.TrimPrefix(srv.URL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "POST /v1/telemetry HTTP/1.1\r\nHost: reapd-test\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n")
		writeChunk := func(s string) {
			if _, err := fmt.Fprintf(conn, "%x\r\n%s\r\n", len(s), s); err != nil {
				t.Fatalf("stream %d: writing chunk: %v", i, err)
			}
		}
		writeChunk(fmt.Sprintf(`{"v":%d,"device":%d,"harvest_j":1.5}`+"\n", wire.Version, i))
		writeChunk(fmt.Sprintf(`{"v":%d,"device":%d,"harv`, wire.Version, i)) // the line the client died on
		_ = conn.Close()
	}

	// Every complete event stepped its device; no partial line did.
	waitFor(t, 10*time.Second, func() bool { return svc.Stats().Steps == streams }, func() string {
		return fmt.Sprintf("steps = %d, want %d (complete events only)", svc.Stats().Steps, streams)
	})

	// The handler goroutines must exit once their readers fail.
	waitFor(t, 10*time.Second, func() bool { return runtime.NumGoroutine() <= baseline+2 }, func() string {
		return fmt.Sprintf("goroutines = %d, baseline %d — telemetry handlers leaked", runtime.NumGoroutine(), baseline)
	})
}

// TestTelemetryInterleavedFullDuplex is the runtime loop over a real
// HTTP/1 connection: the client sends one event, reads its result line,
// and only then sends the next — without Expect: 100-continue. The
// stream must be full duplex for this to progress: a server that drains
// the unread request body before its first flush waits for an event the
// client sends only after it sees a result.
func TestTelemetryInterleavedFullDuplex(t *testing.T) {
	svc := newTestService(t, Config{Devices: 8, BatteryJ: 20, CapacityJ: 100})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/telemetry", pr)
	if err != nil {
		t.Fatal(err)
	}
	const events = 5
	done := make(chan error, 1)
	go func() {
		done <- func() error {
			send := func(i int) error {
				_, err := fmt.Fprintf(pw, `{"v":%d,"device":%d,"harvest_j":1.5}`+"\n", wire.Version, i)
				return err
			}
			// The pipe hands event 0 over only once the transport reads
			// the body, which it starts doing inside Do.
			first := make(chan error, 1)
			go func() { first <- send(0) }()
			resp, err := srv.Client().Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if err := <-first; err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("status %d", resp.StatusCode)
			}
			dec := json.NewDecoder(resp.Body)
			for i := 0; i < events; i++ {
				var res wire.TelemetryResult
				if err := dec.Decode(&res); err != nil {
					return fmt.Errorf("result %d: %w", i, err)
				}
				if res.Error != nil || res.Device != i {
					return fmt.Errorf("result %d: %+v", i, res)
				}
				if i+1 < events {
					if err := send(i + 1); err != nil {
						return err
					}
				}
			}
			return pw.Close()
		}()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		pw.CloseWithError(io.ErrClosedPipe)
		srv.CloseClientConnections()
		t.Fatal("interleaved telemetry stream made no progress in 10s: the server waited for the request body before answering")
	}
}

// TestTelemetryPartialLineAnsweredPrefix is the handler-level view of
// the same disconnect, where the response stream is observable: the
// complete events are each answered, and the partial trailing line
// produces no result line at all — dropped, not misparsed as an event.
func TestTelemetryPartialLineAnsweredPrefix(t *testing.T) {
	svc := newTestService(t, Config{Devices: 8, BatteryJ: 20, CapacityJ: 100})
	h := svc.Handler()

	pr, pw := io.Pipe()
	w := newLineWriter()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/telemetry", pr))
	}()

	harvest := 2.0
	for _, device := range []int{0, 5} {
		raw := mustMarshal(t, &wire.TelemetryEvent{V: wire.Version, Device: device, HarvestJ: &harvest})
		if _, err := pw.Write(append(raw, '\n')); err != nil {
			t.Fatal(err)
		}
		select {
		case line := <-w.lines:
			var res wire.TelemetryResult
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("decoding %q: %v", line, err)
			}
			if res.Device != device || res.Error != nil || res.Allocation == nil {
				t.Fatalf("device %d answered %+v", device, res)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no result for device %d", device)
		}
	}

	// Half a line, then the connection dies.
	if _, err := pw.Write([]byte(`{"v":1,"device":3,"harv`)); err != nil {
		t.Fatal(err)
	}
	pw.CloseWithError(fmt.Errorf("client vanished"))

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler did not return after the body failed")
	}
	select {
	case line := <-w.lines:
		t.Fatalf("partial trailing line produced a result: %s", line)
	default:
	}
	if got := svc.Stats().Steps; got != 2 {
		t.Errorf("steps = %d, want 2 — the partial line must not have stepped device 3", got)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg func() string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg())
}
