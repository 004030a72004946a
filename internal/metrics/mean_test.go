package metrics

import "testing"

func TestMean(t *testing.T) {
	a := Report{QoE: 1, Quality: 2, Delay: 10, Variance: 0.5, Coverage: 0.8, FPSFrac: 1}
	b := Report{QoE: -3, Quality: 4, Delay: 20, Variance: 1.5, Coverage: 0.6, FPSFrac: 0.5}
	for _, tc := range []struct {
		name string
		in   []Report
		want Report
	}{
		{"empty", nil, Report{}},
		{"one", []Report{a}, a},
		{"two", []Report{a, b}, Report{QoE: -1, Quality: 3, Delay: 15, Variance: 1, Coverage: 0.7, FPSFrac: 0.75}},
		{"same thrice", []Report{b, b, b}, b},
	} {
		got := Mean(tc.in)
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"QoE", got.QoE, tc.want.QoE},
			{"Quality", got.Quality, tc.want.Quality},
			{"Delay", got.Delay, tc.want.Delay},
			{"Variance", got.Variance, tc.want.Variance},
			{"Coverage", got.Coverage, tc.want.Coverage},
			{"FPSFrac", got.FPSFrac, tc.want.FPSFrac},
		} {
			if d := f.got - f.want; d > 1e-12 || d < -1e-12 {
				t.Errorf("%s: %s = %v, want %v", tc.name, f.name, f.got, f.want)
			}
		}
	}
}
