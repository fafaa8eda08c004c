package stats

import "math"

// This file provides the binary detection metrics (precision, recall,
// F-measure) used to evaluate the MD module (Fig 7, Table III) and the
// multi-class confusion matrix used to evaluate the RE classifier (Fig 8).

// Detection tallies the outcomes of a binary detector matched against
// ground truth events, in the sense Section V-A of the paper defines for
// MD: a true positive is a detected window overlapping a true window, a
// false positive a detection overlapping no true window, and a false
// negative a true window with no overlapping detection.
type Detection struct {
	TP, FP, FN int
}

// Precision returns TP / (TP + FP), or 0 when no positives were emitted.
func (d Detection) Precision() float64 {
	if d.TP+d.FP == 0 {
		return 0
	}
	return float64(d.TP) / float64(d.TP+d.FP)
}

// Recall returns TP / (TP + FN), or 0 when there were no true events.
func (d Detection) Recall() float64 {
	if d.TP+d.FN == 0 {
		return 0
	}
	return float64(d.TP) / float64(d.TP+d.FN)
}

// FMeasure returns the harmonic mean 2·P·R/(P+R), the statistic Fig 7
// sweeps over t∆, or 0 when both precision and recall are 0.
func (d Detection) FMeasure() float64 {
	p, r := d.Precision(), d.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Add returns the elementwise sum of two tallies, for aggregating folds.
func (d Detection) Add(o Detection) Detection {
	return Detection{TP: d.TP + o.TP, FP: d.FP + o.FP, FN: d.FN + o.FN}
}

// MeanAndCI95 returns the mean of xs and the half-width of its 95%
// confidence interval (1.96·σ̂/√n), used for Fig 8's error bars over the 10
// cross-validation splits.
func MeanAndCI95(xs []float64) (mean, halfWidth float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	mean = Mean(xs)
	if n == 1 {
		return mean, 0
	}
	se := StdDevSample(xs) / math.Sqrt(float64(n))
	return mean, 1.96 * se
}

// StdDevSample returns the sample (n-1) standard deviation.
func StdDevSample(xs []float64) float64 {
	return math.Sqrt(SampleVariance(xs))
}
