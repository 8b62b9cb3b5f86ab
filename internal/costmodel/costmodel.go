// Package costmodel turns the block-level costs the theorems speak about
// (blocks moved, round trips, server blocks touched) into deployment-level
// estimates (per-query latency, per-server throughput) for parameterized
// environments.
//
// The paper's introduction motivates the whole question with production
// concerns: "for large-scale storage infrastructure with highly frequent
// access requests, the degradation in response time and the exorbitant
// increase in resource costs incurred by either ORAM or PIR prevent their
// usage." This package is the quantitative version of that sentence: it
// shows, under explicit network/CPU assumptions, why Θ(n) server work
// (PIR) and Θ(log n) round trips (recursive ORAM) are disqualifying while
// the DP constructions stay within small factors of plaintext.
package costmodel

import (
	"fmt"
	"time"
)

// Deployment describes one client↔server environment.
type Deployment struct {
	// Name labels the preset in tables.
	Name string
	// RTT is the network round-trip time.
	RTT time.Duration
	// BandwidthBps is the usable link bandwidth in bytes/second.
	BandwidthBps float64
	// ServerNsPerBlock is the server-side cost of touching one block
	// (read + memcpy + checksum-ish), in nanoseconds.
	ServerNsPerBlock float64
}

// Validate checks the deployment parameters.
func (d Deployment) Validate() error {
	if d.RTT < 0 {
		return fmt.Errorf("costmodel: negative RTT %v", d.RTT)
	}
	if d.BandwidthBps <= 0 {
		return fmt.Errorf("costmodel: bandwidth %v must be positive", d.BandwidthBps)
	}
	if d.ServerNsPerBlock < 0 {
		return fmt.Errorf("costmodel: negative per-block cost %v", d.ServerNsPerBlock)
	}
	return nil
}

// Standard presets used by experiment E14.
var (
	// LAN: same-rack clients, 10 GbE.
	LAN = Deployment{Name: "LAN", RTT: 200 * time.Microsecond, BandwidthBps: 1.25e9, ServerNsPerBlock: 150}
	// WAN: cross-region clients, 100 Mbps.
	WAN = Deployment{Name: "WAN", RTT: 40 * time.Millisecond, BandwidthBps: 1.25e7, ServerNsPerBlock: 150}
	// Mobile: last-mile clients, 20 Mbps, high RTT.
	Mobile = Deployment{Name: "mobile", RTT: 80 * time.Millisecond, BandwidthBps: 2.5e6, ServerNsPerBlock: 150}
)

// SchemeCost is the per-query cost profile of a storage scheme, in the
// units the experiments measure.
type SchemeCost struct {
	// Name labels the scheme.
	Name string
	// BlocksMoved is the client↔server transfer volume per query, in blocks.
	BlocksMoved float64
	// RoundTrips is the number of AWAITED round trips per query: exchanges
	// whose response the client must have before it can continue, each of
	// which costs one RTT. A posted write (store.Remote) is an exchange but
	// not an awaited one — its frame rides in the next request's flight and
	// its ack is collected with that request's response — so DP-RAM and
	// non-recursive Path ORAM make 2 exchanges per query and await 1, the
	// plaintext access's number.
	RoundTrips float64
	// ServerBlocksTouched is the number of blocks the server must process
	// per query (≥ BlocksMoved for PIR-style schemes that compute over the
	// whole database but reply with O(1) blocks).
	ServerBlocksTouched float64
	// BlockBytes is the wire size of one block.
	BlockBytes int
}

// Latency estimates the per-query latency: serialized round trips, wire
// transfer, and server processing.
func (d Deployment) Latency(c SchemeCost) time.Duration {
	wire := time.Duration(c.BlocksMoved * float64(c.BlockBytes) / d.BandwidthBps * 1e9)
	server := time.Duration(c.ServerBlocksTouched * d.ServerNsPerBlock)
	return time.Duration(c.RoundTrips)*d.RTT + wire + server
}

// ServerThroughput estimates queries/second one server core sustains,
// bounded by the tighter of CPU (blocks touched) and egress bandwidth.
func (d Deployment) ServerThroughput(c SchemeCost) float64 {
	cpuPerQuery := c.ServerBlocksTouched * d.ServerNsPerBlock / 1e9 // seconds
	wirePerQuery := c.BlocksMoved * float64(c.BlockBytes) / d.BandwidthBps
	per := cpuPerQuery
	if wirePerQuery > per {
		per = wirePerQuery
	}
	if per <= 0 {
		return 0
	}
	return 1 / per
}

// Slowdown returns the latency multiple of c over a plaintext single-block
// access in the same deployment.
func (d Deployment) Slowdown(c SchemeCost) float64 {
	plain := SchemeCost{
		BlocksMoved:         1,
		RoundTrips:          1,
		ServerBlocksTouched: 1,
		BlockBytes:          c.BlockBytes,
	}
	base := d.Latency(plain)
	if base <= 0 {
		return 0
	}
	return float64(d.Latency(c)) / float64(base)
}
