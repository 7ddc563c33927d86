// Package cli holds the plumbing shared by the tapas commands — the
// signal context, the exit codes, and the daemons' listen → serve →
// drain skeleton (Server) — so ctrl-C/SIGTERM handling stays consistent
// across every binary.
package cli

import (
	"context"
	"errors"
	"flag"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Context returns a context cancelled by ctrl-C or SIGTERM, bounded by
// timeout when positive, plus the cleanup function to defer.
func Context(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if timeout <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	return ctx, func() { cancel(); stop() }
}

// ExitCode maps an error to the process exit code: 130 for interrupts
// and deadlines (the shell convention for SIGINT), 1 otherwise.
func ExitCode(err error) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return 130
	}
	return 1
}

// UsageCode maps a flag.FlagSet.Parse error to the exit code the
// default flag set would have used: 0 when help was asked for, else 2.
func UsageCode(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}
