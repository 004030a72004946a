package netem

import (
	"sync"
	"testing"
	"time"
)

// TestTokenBucketConcurrentHammer drives one bucket from many goroutines
// mixing Admit, SetRate and Rate — the access pattern of the load harness,
// where the slot scheduler retunes rates while per-session senders admit
// packets. Run under -race this is the bucket's thread-safety proof; the
// assertions only pin the invariants that survive interleaving.
func TestTokenBucketConcurrentHammer(t *testing.T) {
	start := time.Now()
	b := NewTokenBucket(50, 32<<10, start)

	const goroutines = 16
	const opsPer = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			now := start
			for i := 0; i < opsPer; i++ {
				now = now.Add(time.Duration(g+1) * time.Microsecond)
				switch i % 8 {
				case 3:
					// Rates stay positive so Admit never returns the
					// blocked-forever sentinel.
					b.SetRate(float64(10+(g+i)%90), now)
				case 5:
					if r := b.Rate(); r <= 0 {
						t.Errorf("goroutine %d: non-positive rate %v", g, r)
						return
					}
				default:
					if d := b.Admit(1200, now); d < 0 {
						t.Errorf("goroutine %d: negative delay %v", g, d)
						return
					} else if d >= time.Hour {
						t.Errorf("goroutine %d: blocked-forever delay with positive rate", g)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// The bucket must still function after the stampede.
	b.SetRate(100, start.Add(time.Minute))
	if d := b.Admit(1500, start.Add(2*time.Minute)); d != 0 {
		t.Errorf("refilled bucket should admit immediately, got %v", d)
	}
}

// TestLossModelConcurrentHammer mirrors the token-bucket hammer for the loss
// model: per-session senders call Drop per packet while the chaos scheduler
// retunes the probability each slot. Run under -race this is the model's
// thread-safety proof.
func TestLossModelConcurrentHammer(t *testing.T) {
	l := NewLossModel(0.3, 7)

	const goroutines = 16
	const opsPer = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				switch i % 8 {
				case 3:
					// Includes out-of-range inputs: SetProb clamps, so
					// Prob stays a valid probability throughout.
					l.SetProb(float64((g+i)%14)/10 - 0.2)
				case 5:
					if p := l.Prob(); p < 0 || p > 1 {
						t.Errorf("goroutine %d: probability %v outside [0, 1]", g, p)
						return
					}
				default:
					l.Drop()
				}
			}
		}(g)
	}
	wg.Wait()

	// The model must still honor the probability extremes after the stampede.
	l.SetProb(0)
	if l.Drop() {
		t.Error("p=0 model dropped a packet")
	}
	l.SetProb(1)
	if !l.Drop() {
		t.Error("p=1 model delivered a packet")
	}
}

// SetProb changes the drop probability (values are clamped to [0, 1]).
func (l *LossModel) SetProb(p float64) {
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	l.mu.Lock()
	l.prob = p
	l.mu.Unlock()
}

// Prob returns the current drop probability.
func (l *LossModel) Prob() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.prob
}
