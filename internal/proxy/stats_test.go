package proxy

import (
	"bytes"
	"strings"
	"testing"

	"dpstore/internal/block"
	"dpstore/internal/core/dpram"
	"dpstore/internal/crypto"
	"dpstore/internal/obs"
	"dpstore/internal/rng"
	"dpstore/internal/store"
	"dpstore/internal/wire"
)

// TestProxyStatsExportNoStashDepth: a scheme's stash size is client
// state — whether an access found its record stashed moves it — so a
// proxy-backed namespace reports Depth 0 in the stats frame and the
// metrics registry carries no stash series. C = n keeps every record
// stashed, so a leaked size could not read 0, and the writes change the
// stash on every access.
func TestProxyStatsExportNoStashDepth(t *testing.T) {
	const n, rec = 16, 16
	db, backing := dpramMem(t, n, rec)
	scheme, err := dpram.Setup(db, backing, dpram.Options{Rand: rng.New(31), Key: crypto.KeyFromSeed(31), StashParam: n})
	if err != nil {
		t.Fatal(err)
	}
	p := New(scheme, Options{})
	t.Cleanup(func() { p.Close() }) //nolint:errcheck
	p.RegisterObs(0)
	ns := store.NewNamespaces()
	ns.AttachAccessor("dp", p)
	for i := 0; i < 4*n; i++ {
		if _, err := p.Write(i%n, block.Pattern(uint64(100+i), rec)); err != nil {
			t.Fatal(err)
		}
	}
	if got := scheme.StashSize(); got != n {
		t.Fatalf("stash holds %d records, want all %d (p = 1)", got, n)
	}

	var found bool
	for _, e := range ns.Stats() {
		if e.Name != "dp" {
			continue
		}
		found = true
		if e.Kind != wire.StatsKindProxy {
			t.Fatalf("namespace kind %v, want proxy", e.Kind)
		}
		if e.Depth != 0 {
			t.Fatalf("proxy namespace exports depth %d: the stash size is client state", e.Depth)
		}
	}
	if !found {
		t.Fatal("proxy namespace missing from the stats snapshot")
	}

	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dpstore_proxy_queue_depth") {
		t.Fatal("the proxy's gauges were not registered")
	}
	if strings.Contains(buf.String(), "stash") {
		t.Fatal("the metrics registry exports a stash series")
	}
}
