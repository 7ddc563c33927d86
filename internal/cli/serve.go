package cli

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"
)

// Server is the listen → serve → drain skeleton both daemons run.
type Server struct {
	Addr    string
	Handler http.Handler
	// DrainTimeout is how long Run waits, once its context ends, for
	// in-flight requests and Drain before cancelling them.
	DrainTimeout time.Duration
	// Drain, when set, runs beside the HTTP drain under the same
	// deadline: the work behind the requests (tapas-serve's job queue),
	// whose event streams only end when it does — so neither drain
	// strictly precedes the other.
	Drain func(ctx context.Context) error
	Logf  func(format string, args ...any)
	// Ready, when set, is told the bound address once the listener is
	// open (tests listen on port 0).
	Ready func(addr string)
}

// Run serves until ctx ends, then drains: intake stops, in-flight
// requests and Drain get DrainTimeout to finish, and whatever is still
// running then is cancelled through its request context. It returns an
// error only when the listener could not be opened or failed; a drain
// cut short by the deadline is logged, not returned.
func (s Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.Addr)
	if err != nil {
		return err
	}
	// baseCtx parents every request context; cancelling it is the hard
	// stop that unblocks still-streaming and still-computing handlers
	// once the drain deadline passes.
	baseCtx, hardStop := context.WithCancel(context.Background())
	defer hardStop()
	srv := &http.Server{
		Handler:     s.Handler,
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}
	s.Logf("listening on %s", ln.Addr())
	if s.Ready != nil {
		s.Ready(ln.Addr().String())
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		return fmt.Errorf("listener failed: %w", err)
	case <-ctx.Done():
	}

	s.Logf("shutting down: draining for up to %v", s.DrainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), s.DrainTimeout)
	defer cancel()
	drained := make(chan error, 1)
	go func() {
		if s.Drain == nil {
			drained <- nil
			return
		}
		drained <- s.Drain(drainCtx)
	}()
	if err := srv.Shutdown(drainCtx); err != nil {
		s.Logf("drain deadline passed, cancelling in-flight requests")
		hardStop()
		_ = srv.Close()
	}
	if err := <-drained; err != nil && !errors.Is(err, context.Canceled) {
		s.Logf("drain cut short: %v", err)
	}
	<-errCh // Serve has returned http.ErrServerClosed
	return nil
}
