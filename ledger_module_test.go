package tierbase

import (
	"os/exec"
	"testing"
)

// TestLedgerModule puts the perf ledger's harness under tier-1. benchmark/
// is its own module, so the root `go build ./...` and `go test ./...`
// never compile it, yet it is written against server.Config,
// cache.Options, lsm.Options and the INFO fields: a root API change that
// breaks it would otherwise surface only when the ledger next runs. Vet
// compiles it against this checkout; -short runs its unit tests and skips
// the end-to-end smoke (the ledger-smoke CI job runs that).
func TestLedgerModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and tests a second module")
	}
	for _, args := range [][]string{
		{"-C", "benchmark", "vet", "./..."},
		{"-C", "benchmark", "test", "-short", "./..."},
	} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
}
