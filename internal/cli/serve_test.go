package cli

import (
	"context"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// serve starts s.Run on a free loopback port and returns the base URL,
// the cancel that begins the drain, and the channel Run's result
// arrives on.
func serve(t *testing.T, s Server) (string, context.CancelFunc, <-chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	addr := make(chan string, 1)
	done := make(chan error, 1)
	s.Addr = "127.0.0.1:0"
	s.Logf = t.Logf
	s.Ready = func(a string) { addr <- a }
	go func() { done <- s.Run(ctx) }()
	select {
	case a := <-addr:
		return "http://" + a, cancel, done
	case err := <-done:
		t.Fatalf("Run returned before listening: %v", err)
		return "", nil, nil
	}
}

// TestServerDrainsInFlight: cancelling the context stops intake but
// lets a request already being served finish, with Drain running beside
// it; Run returns nil once both are done.
func TestServerDrainsInFlight(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	drainStarted := make(chan struct{})
	url, cancel, done := serve(t, Server{
		DrainTimeout: 30 * time.Second,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			close(entered)
			<-release
			io.WriteString(w, "finished")
		}),
		Drain: func(ctx context.Context) error {
			close(drainStarted)
			<-release // like a job queue whose streams end with its jobs
			return nil
		},
	})
	body := make(chan string, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			body <- err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		body <- string(b)
	}()
	<-entered
	cancel()
	<-drainStarted
	select {
	case err := <-done:
		t.Fatalf("Run returned (%v) with a request still in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if got := <-body; got != "finished" {
		t.Errorf("in-flight request got %q, want its full answer", got)
	}
	if err := <-done; err != nil {
		t.Errorf("clean drain returned %v", err)
	}
	if _, err := http.Get(url); err == nil {
		t.Error("listener still accepts after the drain")
	}
}

// TestServerDrainDeadlineCancelsRequests: a handler still running at
// the drain deadline sees its request context cancelled, and Run
// returns instead of waiting for it forever.
func TestServerDrainDeadlineCancelsRequests(t *testing.T) {
	entered := make(chan struct{})
	cancelled := make(chan error, 1)
	url, cancel, done := serve(t, Server{
		DrainTimeout: 20 * time.Millisecond,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			close(entered)
			<-r.Context().Done()
			cancelled <- r.Context().Err()
		}),
		Drain: func(ctx context.Context) error {
			<-ctx.Done()
			return ctx.Err()
		},
	})
	go func() {
		if resp, err := http.Get(url); err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Errorf("stuck handler's context ended with %v", err)
	}
	if err := <-done; err != nil {
		t.Errorf("a drain cut short is logged, not returned; got %v", err)
	}
}

// TestServerListenFailure: an address that cannot be bound is Run's
// error, before Ready.
func TestServerListenFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	s := Server{Addr: ln.Addr().String(), Logf: t.Logf, Ready: func(string) { t.Error("Ready called without a listener") }}
	if err := s.Run(context.Background()); err == nil {
		t.Error("Run on a taken port returned nil")
	}
}

func TestUsageCode(t *testing.T) {
	if UsageCode(flag.ErrHelp) != 0 || UsageCode(errors.New("flag provided but not defined")) != 2 {
		t.Error("want 0 for -h, 2 for a bad flag")
	}
}
