// Package netem emulates the network mechanisms the paper's evaluation
// relies on: the M/M/1 queueing-delay model of eq. (13), a discrete-event
// queue simulator that reproduces the RTT measurements of Fig. 1b, and a
// token-bucket rate limiter standing in for the Linux TC throttling of the
// real-system testbed.
package netem

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/randsrc"
)

// MaxDelay caps the M/M/1 delay for loads at or beyond capacity, where the
// queue is unstable and the analytic delay diverges.
const MaxDelay = 1e3

// mm1Delay returns the paper's delivery-delay model (eq. (13)):
//
//	d_n(r) = r / (B_n - r)
//
// the mean sojourn-time scaling of an M/M/1 queue at utilization r/B. The
// result is dimensionless (multiples of the nominal service time); it is
// convex and increasing in r for fixed capacity, and capped at MaxDelay for
// r >= B.
func mm1Delay(rateMbps, capacityMbps float64) float64 {
	if capacityMbps <= 0 || rateMbps >= capacityMbps {
		return MaxDelay
	}
	if rateMbps <= 0 {
		return 0
	}
	d := rateMbps / (capacityMbps - rateMbps)
	if d > MaxDelay {
		return MaxDelay
	}
	return d
}

// DelayMs converts the dimensionless M/M/1 factor into a delivery delay in
// milliseconds: the factor scales the nominal per-slot transmission time.
// Delivering one slot's content of rate r over a link of capacity B takes
// roughly r/(B-r) slot-times of queueing-plus-transmission; at 60 FPS one
// slot-time is 16.7 ms. This is the scale at which the paper's alpha=0.02
// delay weight trades off against one quality level.
func DelayMs(rateMbps, capacityMbps, slotMs float64) float64 {
	return mm1Delay(rateMbps, capacityMbps) * slotMs
}

// DelayTableMsInto evaluates DelayMs across a rate ladder into
// caller-provided out (len(out) must equal len(rates)), without allocating.
func DelayTableMsInto(out, rates []float64, capacityMbps, slotMs float64) {
	for i, r := range rates {
		out[i] = DelayMs(r, capacityMbps, slotMs)
	}
}

// QueueSim reproduces the Fig. 1b experiment: a link capped at a fixed
// throughput carries traffic at a chosen sending rate while RTT samples are
// collected. Waiting times follow the Lindley recursion of a single-server
// queue with Poisson arrivals and exponential service.
type QueueSim struct {
	// LinkMbps is the throughput cap (paper: 15 Mbps).
	LinkMbps float64
	// PacketBytes is the packet size used to convert rates into packet
	// processes (default 1200).
	PacketBytes int
	// BaseRTTMs is the propagation floor added to every sample (default 2).
	BaseRTTMs float64
}

// NewQueueSim returns a simulator for the given link capacity.
func NewQueueSim(linkMbps float64) *QueueSim {
	return &QueueSim{LinkMbps: linkMbps, PacketBytes: 1200, BaseRTTMs: 2}
}

// RTTSamples simulates sending at sendMbps and returns n RTT samples in
// milliseconds. The mean RTT grows convexly with the sending rate, which is
// the Fig. 1b observation that motivates the convex d_n(r) assumption.
func (q *QueueSim) RTTSamples(sendMbps float64, n int, rng *rand.Rand) []float64 {
	pktBits := float64(q.PacketBytes) * 8
	serviceRate := q.LinkMbps * 1e6 / pktBits // packets/s the link drains
	arrivalRate := sendMbps * 1e6 / pktBits   // packets/s offered
	if arrivalRate >= serviceRate {
		arrivalRate = serviceRate * 0.999 // keep the queue marginally stable
	}
	samples := make([]float64, n)
	wait := 0.0 // seconds
	for i := 0; i < n; i++ {
		interArrival := rng.ExpFloat64() / arrivalRate
		service := rng.ExpFloat64() / serviceRate
		// Lindley: waiting of this packet given the previous backlog.
		wait = math.Max(0, wait+service-interArrival)
		sojourn := wait + service
		samples[i] = q.BaseRTTMs + sojourn*1e3
	}
	return samples
}

// TokenBucket is a thread-safe token-bucket rate limiter, the in-process
// analogue of the Linux TC throttles the testbed applies per user and per
// router. Admission is non-blocking: Admit returns how long the caller
// should delay the packet to conform to the rate.
type TokenBucket struct {
	mu         sync.Mutex
	rateBps    float64 // tokens (bits) per second
	burstBits  float64
	tokens     float64
	lastRefill time.Time
}

// NewTokenBucket returns a bucket limiting to rateMbps with the given burst
// (in bytes; <= 0 means 64 KiB).
func NewTokenBucket(rateMbps float64, burstBytes int, now time.Time) *TokenBucket {
	if burstBytes <= 0 {
		burstBytes = 64 << 10
	}
	b := &TokenBucket{
		rateBps:    rateMbps * 1e6,
		burstBits:  float64(burstBytes) * 8,
		lastRefill: now,
	}
	b.tokens = b.burstBits
	return b
}

// SetRate changes the shaping rate (the testbed varies capacity over time).
func (b *TokenBucket) SetRate(rateMbps float64, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill(now)
	b.rateBps = rateMbps * 1e6
}

// Rate returns the current rate in Mbps.
func (b *TokenBucket) Rate() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rateBps / 1e6
}

// Admit charges a packet of n bytes against the bucket and returns the
// delay the packet must wait before transmission to conform to the rate
// (zero if tokens are available now).
func (b *TokenBucket) Admit(n int, now time.Time) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill(now)
	bits := float64(n) * 8
	b.tokens -= bits
	if b.tokens >= 0 {
		return 0
	}
	if b.rateBps <= 0 {
		return time.Hour // effectively blocked
	}
	deficit := -b.tokens
	return time.Duration(deficit / b.rateBps * float64(time.Second))
}

func (b *TokenBucket) refill(now time.Time) {
	elapsed := now.Sub(b.lastRefill).Seconds()
	if elapsed <= 0 {
		return
	}
	b.lastRefill = now
	b.tokens += elapsed * b.rateBps
	if b.tokens > b.burstBits {
		b.tokens = b.burstBits
	}
}

// LossModel drops packets i.i.d. with a configurable probability, the
// packet-loss source the paper's RTP transport must tolerate. It is safe for
// concurrent use: senders call Drop per packet.
type LossModel struct {
	mu   sync.Mutex
	prob float64
	rng  *rand.Rand
}

// NewLossModel returns a loss model with the given drop probability.
func NewLossModel(p float64, seed int64) *LossModel {
	return &LossModel{prob: p, rng: randsrc.NewRand(seed)}
}

// Drop reports whether the next packet should be dropped.
func (l *LossModel) Drop() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.prob <= 0 {
		return false
	}
	return l.rng.Float64() < l.prob
}
