package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dpstore/internal/block"
	"dpstore/internal/proxy"
	"dpstore/internal/store"
)

func dialOrFatal(t *testing.T, addr string) *store.Remote {
	t.Helper()
	rs, err := store.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func dialNamespaceOrFatal(t *testing.T, addr, name string, slots, blockSize int) *store.Remote {
	t.Helper()
	rs, err := store.DialNamespace(addr, name, slots, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// buildDaemon compiles blockstored once per test binary.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "blockstored")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Skipf("cannot build daemon (no go toolchain in test env?): %v\n%s", err, out)
	}
	return bin
}

// startDaemon launches the binary and waits for the port to accept.
func startDaemon(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

func waitListening(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("daemon never listened on %s", addr)
}

func pickAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestKillAndRestartDurableProxy is the acceptance round trip: write
// records through `-proxy dpram -data DIR` over TCP, SIGKILL the daemon
// mid-workload, restart it on the same directory, and require every
// previously-acknowledged logical record to read back its acknowledged
// value. (The trace-shape half of the acceptance criterion — resumed
// workload shape == uninterrupted shape — is pinned in-process by
// TestRecoveryShapeInvariance, where the backing store is observable.)
func TestKillAndRestartDurableProxy(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildDaemon(t)
	dir := t.TempDir()
	addr := pickAddr(t)
	args := []string{"-addr", addr, "-slots", "256", "-blocksize", "32", "-proxy", "dpram", "-data", dir}

	daemon := startDaemon(t, bin, args...)
	waitListening(t, addr)
	cl, err := proxy.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Epoch() != 1 {
		t.Fatalf("first-generation epoch = %d, want 1", cl.Epoch())
	}

	// Workload: write records while a timer murders the daemon. Acked
	// writes go into the shadow; the write in flight at kill time may land
	// or not — either is correct, so it is tracked separately.
	acked := make(map[int]block.Block)
	killAt := time.After(400 * time.Millisecond)
	var inFlight int
	killed := false
	for q := 0; !killed; q++ {
		select {
		case <-killAt:
			if err := daemon.Process.Signal(syscall.SIGKILL); err != nil {
				t.Fatal(err)
			}
			daemon.Wait() //nolint:errcheck // SIGKILL exit is expected
			killed = true
			continue
		default:
		}
		i := (q * 7) % 256
		v := block.New(32)
		copy(v, fmt.Sprintf("acked-%05d", q))
		inFlight = i
		if _, err := cl.Write(i, v); err != nil {
			// The kill raced the round trip: unacknowledged, excluded.
			break
		}
		acked[i] = v
	}
	cl.Close()
	if len(acked) == 0 {
		t.Fatal("daemon died before any write was acknowledged; timing broken")
	}
	t.Logf("killed after %d acknowledged writes", len(acked))

	// Restart on the same directory: recovery must replay the journal.
	daemon2 := startDaemon(t, bin, args...)
	defer func() {
		daemon2.Process.Kill() //nolint:errcheck
		daemon2.Wait()         //nolint:errcheck
	}()
	waitListening(t, addr)
	cl2, err := proxy.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if cl2.Epoch() != 2 {
		t.Fatalf("recovered epoch = %d, want 2 (client can detect the restart)", cl2.Epoch())
	}
	zero := block.New(32)
	for i := 0; i < 256; i++ {
		got, err := cl2.Read(i)
		if err != nil {
			t.Fatalf("read %d after recovery: %v", i, err)
		}
		want, wasAcked := acked[i]
		switch {
		case wasAcked && !bytes.Equal(got, want):
			if i == inFlight {
				// The unacked in-flight write targeted this record: the
				// acked value OR zero-prefix is... no: an unacked write may
				// have landed, so any NEWER value is also admissible, but a
				// LOST acked value is not. Distinguish: the in-flight write
				// carried a larger q for the same record.
				if bytes.HasPrefix(got, []byte("acked-")) {
					continue
				}
			}
			t.Fatalf("acked record %d lost: got %q want %q", i, got, want)
		case !wasAcked && i != inFlight && !bytes.Equal(got, zero):
			t.Fatalf("never-written record %d holds %q", i, got)
		}
	}
}

// TestKillAndRestartPartitionedProxy: the durability round trip for a
// striped tenant. `-proxy dpram -partitions 4 -data DIR` journals four
// scheme instances into per-partition WALs over one shared durable
// backend; a SIGKILL mid-workload tears at most one partition's in-flight
// batch, and the restart must replay every journal and serve every
// previously-acknowledged logical record. A third start with a different
// -partitions on the same directory must be refused outright: the
// striping width is load-bearing on-disk state.
func TestKillAndRestartPartitionedProxy(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildDaemon(t)
	dir := t.TempDir()
	addr := pickAddr(t)
	args := []string{"-addr", addr, "-slots", "256", "-blocksize", "32", "-proxy", "dpram", "-partitions", "4", "-data", dir}

	daemon := startDaemon(t, bin, args...)
	waitListening(t, addr)
	cl, err := proxy.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Partitions() != 4 {
		t.Fatalf("handshake advertises %d partitions, want 4", cl.Partitions())
	}
	if cl.Epoch() != 1 {
		t.Fatalf("first-generation epoch = %d, want 1", cl.Epoch())
	}

	// Stride 7 is coprime to 4, so acked writes land in every partition
	// before the timer kills the daemon mid-workload.
	acked := make(map[int]block.Block)
	killAt := time.After(400 * time.Millisecond)
	var inFlight int
	killed := false
	for q := 0; !killed; q++ {
		select {
		case <-killAt:
			if err := daemon.Process.Signal(syscall.SIGKILL); err != nil {
				t.Fatal(err)
			}
			daemon.Wait() //nolint:errcheck // SIGKILL exit is expected
			killed = true
			continue
		default:
		}
		i := (q * 7) % 256
		v := block.New(32)
		copy(v, fmt.Sprintf("acked-%05d", q))
		inFlight = i
		if _, err := cl.Write(i, v); err != nil {
			break // the kill raced the round trip: unacknowledged, excluded
		}
		acked[i] = v
	}
	cl.Close()
	if len(acked) == 0 {
		t.Fatal("daemon died before any write was acknowledged; timing broken")
	}
	t.Logf("killed after %d acknowledged writes", len(acked))

	daemon2 := startDaemon(t, bin, args...)
	waitListening(t, addr)
	cl2, err := proxy.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if cl2.Partitions() != 4 {
		t.Fatalf("recovered handshake advertises %d partitions, want 4", cl2.Partitions())
	}
	if cl2.Epoch() != 2 {
		t.Fatalf("recovered epoch = %d, want 2", cl2.Epoch())
	}
	zero := block.New(32)
	for i := 0; i < 256; i++ {
		got, err := cl2.Read(i)
		if err != nil {
			t.Fatalf("read %d after recovery: %v", i, err)
		}
		want, wasAcked := acked[i]
		switch {
		case wasAcked && !bytes.Equal(got, want):
			if i == inFlight && bytes.HasPrefix(got, []byte("acked-")) {
				continue // the unacked in-flight write landed: admissible
			}
			t.Fatalf("acked record %d lost: got %q want %q", i, got, want)
		case !wasAcked && i != inFlight && !bytes.Equal(got, zero):
			t.Fatalf("never-written record %d holds %q", i, got)
		}
	}
	cl2.Close()
	if err := daemon2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := daemon2.Wait(); err != nil {
		t.Fatalf("SIGTERM shutdown of recovered partitioned daemon: %v", err)
	}

	// Reopening the same directory under a different striping width would
	// scramble record→partition routing; the daemon must refuse.
	bad := exec.Command(bin, "-addr", pickAddr(t), "-slots", "256", "-blocksize", "32", "-proxy", "dpram", "-partitions", "2", "-data", dir)
	out, err := bad.CombinedOutput()
	if err == nil {
		t.Fatalf("daemon opened a P=4 directory with -partitions 2:\n%s", out)
	}
	if !strings.Contains(string(out), "partitions") {
		t.Fatalf("refusal does not name the striping mismatch:\n%s", out)
	}
}

// TestMetricsDrainOnSignal exercises the -metrics shutdown contract
// in-process, where the window between "signal received" and "process
// gone" is observable deterministically: after SIGTERM, /healthz flips to
// 503 draining BEFORE the wire listener closes, and finish closes the
// metrics listener so the HTTP port does not outlive the stores.
func TestMetricsDrainOnSignal(t *testing.T) {
	mem, err := store.NewMem(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	ns := store.NewNamespaces()
	ns.Attach(store.DefaultNamespace, mem)
	sd := &shutdown{}
	maddr := pickAddr(t)
	applyOperability(ns, 0, 0, maddr, false, sd)

	// Each probe dials fresh: a kept-alive connection would keep answering
	// after the listener closed and mask the port staying up or down.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	get := func() (int, string) {
		t.Helper()
		resp, err := client.Get("http://" + maddr + "/healthz")
		if err != nil {
			return 0, err.Error()
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	code, body := get()
	if code != http.StatusOK || !strings.HasPrefix(body, "ok") {
		t.Fatalf("healthy daemon: /healthz = %d %q", code, body)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sd.onSignal(ln)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// The handler flips draining then closes the wire listener; Accept
	// returning is the signal-processed barrier.
	if _, err := ln.Accept(); err == nil {
		t.Fatal("wire listener still accepting after SIGTERM")
	}
	code, body = get()
	if code != http.StatusServiceUnavailable || !strings.HasPrefix(body, "draining") {
		t.Fatalf("draining daemon: /healthz = %d %q, want 503 draining", code, body)
	}

	// finish closes stores first, metrics listener last.
	sd.finish(net.ErrClosed)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code, _ := get(); code == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("metrics listener survived finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCleanShutdownSIGTERM: SIGTERM checkpoints and exits 0; the restart
// serves the data with the epoch advanced.
func TestCleanShutdownSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildDaemon(t)
	dir := t.TempDir()
	addr := pickAddr(t)
	maddr := pickAddr(t)
	args := []string{"-addr", addr, "-slots", "128", "-blocksize", "32", "-proxy", "pathoram", "-data", dir, "-metrics", maddr}

	daemon := startDaemon(t, bin, args...)
	waitListening(t, addr)
	waitListening(t, maddr)
	resp, err := http.Get("http://" + maddr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy daemon: /healthz = %d", resp.StatusCode)
	}
	cl, err := proxy.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	want := block.New(32)
	copy(want, "survives sigterm")
	if _, err := cl.Write(9, want); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := daemon.Wait(); err != nil {
		t.Fatalf("SIGTERM shutdown was not clean: %v", err)
	}
	// The metrics port dies with the process, not before the checkpoint.
	if _, err := http.Get("http://" + maddr + "/healthz"); err == nil {
		t.Fatal("metrics port outlived the daemon")
	}

	daemon2 := startDaemon(t, bin, args...)
	defer func() {
		daemon2.Process.Kill() //nolint:errcheck
		daemon2.Wait()         //nolint:errcheck
	}()
	waitListening(t, addr)
	cl2, err := proxy.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	got, err := cl2.Read(9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("record lost across SIGTERM restart: %q", got)
	}
}

// TestDurableBlockNamespacesRestart: block mode with -data — the default
// namespace's blocks and a factory-created namespace (registry persisted)
// both survive a SIGKILL restart.
func TestDurableBlockNamespacesRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildDaemon(t)
	dir := t.TempDir()
	addr := pickAddr(t)
	args := []string{"-addr", addr, "-slots", "64", "-blocksize", "16", "-data", dir, "-shards", "2", "-namespaces", "4"}

	daemon := startDaemon(t, bin, args...)
	waitListening(t, addr)

	// Default namespace write.
	rs := dialOrFatal(t, addr)
	defVal := block.Block(bytes.Repeat([]byte{0xAB}, 16))
	if err := rs.Upload(5, defVal); err != nil {
		t.Fatal(err)
	}
	epoch1 := rs.Epoch()
	// The upload was posted; Close flushes, and only its nil makes the
	// write acknowledged (and so owed back after the SIGKILL).
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	// Tenant namespace (created through the factory, persisted).
	tn := dialNamespaceOrFatal(t, addr, "tenant-x", 32, 16)
	tenVal := block.Block(bytes.Repeat([]byte{0xCD}, 16))
	if err := tn.Upload(3, tenVal); err != nil {
		t.Fatal(err)
	}
	if err := tn.Close(); err != nil {
		t.Fatal(err)
	}

	if err := daemon.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	daemon.Wait() //nolint:errcheck

	daemon2 := startDaemon(t, bin, args...)
	defer func() {
		daemon2.Process.Kill() //nolint:errcheck
		daemon2.Wait()         //nolint:errcheck
	}()
	waitListening(t, addr)

	rs2 := dialOrFatal(t, addr)
	defer rs2.Close()
	if rs2.Epoch() != epoch1+1 {
		t.Fatalf("epoch %d → %d, want +1", epoch1, rs2.Epoch())
	}
	got, err := rs2.Download(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, defVal) {
		t.Fatal("default-namespace block lost across SIGKILL")
	}
	tn2 := dialNamespaceOrFatal(t, addr, "tenant-x", 0, 0)
	defer tn2.Close()
	if tn2.Size() != 32 || tn2.BlockSize() != 16 {
		t.Fatalf("restored tenant shape %d × %d", tn2.Size(), tn2.BlockSize())
	}
	got, err = tn2.Download(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, tenVal) {
		t.Fatal("tenant-namespace block lost across SIGKILL (registry or engine failed)")
	}
}
