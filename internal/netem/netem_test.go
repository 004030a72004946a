package netem

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestMM1DelayValues(t *testing.T) {
	tests := []struct {
		rate, cap_ float64
		want       float64
	}{
		{10, 20, 1},
		{15, 20, 3},
		{0, 20, 0},
		{-5, 20, 0},
		{20, 20, MaxDelay},
		{25, 20, MaxDelay},
		{10, 0, MaxDelay},
	}
	for _, tt := range tests {
		if got := mm1Delay(tt.rate, tt.cap_); got != tt.want {
			t.Errorf("MM1Delay(%v, %v) = %v, want %v", tt.rate, tt.cap_, got, tt.want)
		}
	}
}

// Convexity and monotonicity of d(r) for fixed capacity: the property Fig. 1b
// establishes empirically and Section II assumes.
func TestMM1DelayConvexIncreasingProperty(t *testing.T) {
	f := func(capRaw uint8, r1Raw, r2Raw, r3Raw uint16) bool {
		cap_ := 20 + float64(capRaw%80)
		// Three increasing rates strictly inside (0, cap).
		rs := []float64{
			float64(r1Raw%1000) / 1000 * cap_ * 0.9,
			float64(r2Raw%1000) / 1000 * cap_ * 0.9,
			float64(r3Raw%1000) / 1000 * cap_ * 0.9,
		}
		sort.Float64s(rs)
		lo, mid, hi := rs[0], rs[1], rs[2]
		if lo <= 0 || hi >= cap_ || lo == mid || mid == hi {
			return true
		}
		dLo, dMid, dHi := mm1Delay(lo, cap_), mm1Delay(mid, cap_), mm1Delay(hi, cap_)
		if !(dLo <= dMid && dMid <= dHi) {
			return false
		}
		// Convexity: the chord at mid lies above the curve.
		lambda := (hi - mid) / (hi - lo)
		chord := lambda*dLo + (1-lambda)*dHi
		return dMid <= chord+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestDelayTable(t *testing.T) {
	rates := []float64{5, 10, 15}
	got := make([]float64, len(rates))
	DelayTableMsInto(got, rates, 20, 1)
	want := []float64{5.0 / 15, 1, 3}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("DelayTable[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestQueueSimRTTGrowsConvex reproduces the Fig. 1b shape: mean RTT grows
// with the sending rate and the growth accelerates (convexity).
func TestQueueSimRTTGrowsConvex(t *testing.T) {
	q := NewQueueSim(15)
	rng := rand.New(rand.NewSource(1))
	rates := []float64{3, 6, 9, 12, 14}
	means := make([]float64, len(rates))
	for i, r := range rates {
		var sum float64
		for _, s := range q.RTTSamples(r, 40000, rng) {
			sum += s
		}
		means[i] = sum / 40000
	}
	for i := 1; i < len(means); i++ {
		if means[i] <= means[i-1] {
			t.Fatalf("mean RTT not increasing: %v", means)
		}
	}
	// Acceleration: the last step (12->14 Mbps) dwarfs the first (3->6).
	if last, first := means[len(means)-1]-means[len(means)-2], means[1]-means[0]; last < 2*first {
		t.Errorf("RTT growth should accelerate near capacity: first step %v, last %v",
			first, last)
	}
	// The base RTT floor holds.
	for i, m := range means {
		if m < q.BaseRTTMs {
			t.Errorf("mean[%d] = %v below base RTT", i, m)
		}
	}
}

func TestQueueSimOverload(t *testing.T) {
	q := NewQueueSim(15)
	rng := rand.New(rand.NewSource(2))
	// Sending above the cap must not hang or panic; the arrival rate is
	// clamped to keep the queue marginally stable.
	samples := q.RTTSamples(50, 1000, rng)
	if len(samples) != 1000 {
		t.Fatalf("got %d samples", len(samples))
	}
}

func TestTokenBucketConformance(t *testing.T) {
	start := time.Unix(0, 0)
	b := NewTokenBucket(8 /* Mbps */, 1000, start)
	// Burst of 1000 bytes passes immediately.
	if d := b.Admit(1000, start); d != 0 {
		t.Fatalf("first packet delayed %v", d)
	}
	// Next 1000 bytes must wait ~1 ms (8000 bits at 8 Mbps).
	d := b.Admit(1000, start)
	want := time.Millisecond
	if d < want*9/10 || d > want*11/10 {
		t.Fatalf("second packet delay %v, want about %v", d, want)
	}
	// After enough wall time the bucket refills.
	later := start.Add(100 * time.Millisecond)
	if d := b.Admit(1000, later); d != 0 {
		t.Fatalf("refilled packet delayed %v", d)
	}
}

func TestTokenBucketSustainedRate(t *testing.T) {
	start := time.Unix(0, 0)
	b := NewTokenBucket(10, 1500, start)
	// Send 100 x 1250-byte packets as fast as the bucket allows and check
	// the total conformance time approximates size/rate.
	now := start
	for i := 0; i < 100; i++ {
		d := b.Admit(1250, now)
		now = now.Add(d)
	}
	totalBits := 100 * 1250 * 8.0
	wantSeconds := totalBits / (10 * 1e6)
	got := now.Sub(start).Seconds()
	if math.Abs(got-wantSeconds) > wantSeconds*0.2+0.001 {
		t.Errorf("sustained send took %v s, want about %v s", got, wantSeconds)
	}
}

func TestTokenBucketSetRate(t *testing.T) {
	start := time.Unix(0, 0)
	b := NewTokenBucket(10, 1000, start)
	b.SetRate(20, start)
	if got := b.Rate(); got != 20 {
		t.Errorf("Rate = %v, want 20", got)
	}
	// Zero rate blocks.
	b.SetRate(0, start)
	b.Admit(100000, start) // drain
	if d := b.Admit(1000, start); d < time.Minute {
		t.Errorf("zero-rate bucket should effectively block, got %v", d)
	}
}

func TestLossModel(t *testing.T) {
	none := NewLossModel(0, 1)
	for i := 0; i < 100; i++ {
		if none.Drop() {
			t.Fatal("p=0 should never drop")
		}
	}
	always := NewLossModel(1, 1)
	for i := 0; i < 100; i++ {
		if !always.Drop() {
			t.Fatal("p=1 should always drop")
		}
	}
	half := NewLossModel(0.3, 42)
	drops := 0
	for i := 0; i < 10000; i++ {
		if half.Drop() {
			drops++
		}
	}
	if rate := float64(drops) / 10000; math.Abs(rate-0.3) > 0.03 {
		t.Errorf("drop rate %v, want about 0.3", rate)
	}
}
