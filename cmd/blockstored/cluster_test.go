package main

// Cluster acceptance harness, mirroring kill_test.go's SIGKILL
// discipline: three real replica daemons (durable, -data) plus a
// -replicate front door, all exec'd binaries over TCP. One replica is
// SIGKILLed under load (zero client-visible failures required), then
// restarted; the front door must resynchronize and promote it — observed
// through the MsgReplStatusReq frame — and the rejoined replica must
// prove it holds the data by serving correct reads after BOTH other
// replicas are killed.

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"dpstore/internal/block"
	"dpstore/internal/store"
)

// waitReplicaState polls the front door's status frame until the replica
// at idx reaches the wanted state.
func waitReplicaState(t *testing.T, frontAddr string, idx int, want store.ReplicaState) {
	t.Helper()
	rs := dialOrFatal(t, frontAddr)
	defer rs.Close()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		sts, err := rs.ReplicaStatus()
		if err == nil && len(sts) > idx && sts[idx].State == want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	sts, err := rs.ReplicaStatus()
	t.Fatalf("replica %d never reached state %d (status %+v, err %v)", idx, want, sts, err)
}

// TestClusterKillAndRejoin is the replication acceptance round trip.
func TestClusterKillAndRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	const slots, bs = 128, 32
	bin := buildDaemon(t)

	// Three durable replica daemons.
	replicaAddrs := make([]string, 3)
	replicaArgs := make([][]string, 3)
	daemons := make([]*exec.Cmd, 3)
	for i := range replicaAddrs {
		replicaAddrs[i] = pickAddr(t)
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("replica%d", i))
		replicaArgs[i] = []string{"-addr", replicaAddrs[i],
			"-slots", fmt.Sprint(slots), "-blocksize", fmt.Sprint(bs), "-data", dir}
		daemons[i] = startDaemon(t, bin, replicaArgs[i]...)
		waitListening(t, replicaAddrs[i])
	}
	defer func() {
		for _, d := range daemons {
			if d != nil {
				d.Process.Kill() //nolint:errcheck
				d.Wait()         //nolint:errcheck
			}
		}
	}()

	// The front door.
	frontAddr := pickAddr(t)
	front := startDaemon(t, bin, "-addr", frontAddr,
		"-replicate", replicaAddrs[0]+","+replicaAddrs[1]+","+replicaAddrs[2],
		"-quorum", "2", "-readpolicy", "rotate")
	defer func() {
		front.Process.Kill() //nolint:errcheck
		front.Wait()         //nolint:errcheck
	}()
	waitListening(t, frontAddr)

	cl := dialOrFatal(t, frontAddr)
	defer cl.Close()
	if cl.Size() != slots || cl.BlockSize() != bs {
		t.Fatalf("front door shape %d × %d", cl.Size(), cl.BlockSize())
	}

	// Load phase 1: writes and reads through the front door, with replica
	// 1 SIGKILLed mid-way. Every operation must succeed.
	shadow := make(map[int]block.Block)
	access := func(q int) {
		a := (q * 7) % slots
		if q%3 != 0 {
			v := block.New(bs)
			copy(v, fmt.Sprintf("q-%05d", q))
			// A Remote posts its writes: only the flush makes this one
			// acknowledged, and only acknowledged writes enter the shadow.
			err := cl.Upload(a, v)
			if err == nil {
				err = cl.Flush()
			}
			if err != nil {
				t.Fatalf("write %d (replica killed mid-load): %v", q, err)
			}
			shadow[a] = v
			return
		}
		got, err := cl.Download(a)
		if err != nil {
			t.Fatalf("read %d (replica killed mid-load): %v", q, err)
		}
		want := shadow[a]
		if want == nil {
			want = block.New(bs)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read %d wrong data during outage", q)
		}
	}
	for q := 0; q < 40; q++ {
		access(q)
	}
	if err := daemons[1].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	daemons[1].Wait() //nolint:errcheck
	for q := 40; q < 120; q++ {
		access(q)
	}
	waitReplicaState(t, frontAddr, 1, store.ReplicaDown)

	// Restart replica 1 on its same address and data dir: the front door
	// must redial it, stream the missed writes (durable replica — dirty
	// backlog, not a full copy), and promote it.
	daemons[1] = startDaemon(t, bin, replicaArgs[1]...)
	waitListening(t, replicaAddrs[1])
	waitReplicaState(t, frontAddr, 1, store.ReplicaUp)

	// More load after promotion (its acks count again).
	for q := 120; q < 140; q++ {
		access(q)
	}

	// The proof the rejoin was real: kill BOTH other replicas; the
	// rejoined replica alone must serve every acknowledged write.
	for _, i := range []int{0, 2} {
		if err := daemons[i].Process.Signal(syscall.SIGKILL); err != nil {
			t.Fatal(err)
		}
		daemons[i].Wait() //nolint:errcheck
		daemons[i] = nil
	}
	for a := 0; a < slots; a++ {
		got, err := cl.Download(a)
		if err != nil {
			t.Fatalf("read %d from the rejoined replica alone: %v", a, err)
		}
		want := shadow[a]
		if want == nil {
			want = block.New(bs)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("rejoined replica lost data at addr %d: got %q want %q", a, got, want)
		}
	}
}

// TestClusterFrontDoorFlagValidation: the front door refuses local
// storage flags and rejects -quorum without -replicate.
func TestClusterFrontDoorFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildDaemon(t)
	for _, args := range [][]string{
		{"-addr", "127.0.0.1:0", "-replicate", "127.0.0.1:1", "-data", t.TempDir()},
		{"-addr", "127.0.0.1:0", "-replicate", "127.0.0.1:1", "-shards", "4"},
		{"-addr", "127.0.0.1:0", "-quorum", "2"},
		{"-addr", "127.0.0.1:0", "-replicate", "127.0.0.1:1", "-readpolicy", "nonsense"},
	} {
		cmd := exec.Command(bin, args...)
		if err := cmd.Run(); err == nil {
			t.Errorf("daemon accepted invalid flags %v", args)
		}
	}
}
