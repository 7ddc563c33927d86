package store_test

import (
	"os"
	"testing"

	"tapas/store"
	"tapas/store/backendtest"
)

// TestFSBackendConformance runs the shared backend battery against the
// filesystem backend; store/remotebackend runs the same battery against
// the HTTP peer protocol.
func TestFSBackendConformance(t *testing.T) {
	backendtest.Run(t, backendtest.Harness{
		Open: func(t *testing.T) store.Backend {
			b, err := store.NewFS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
		Corrupt: func(t *testing.T, b store.Backend, id string, data []byte) {
			if err := os.WriteFile(b.(*store.FS).Path(id), data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	})
}
