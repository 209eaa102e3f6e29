package core

// This file implements the first extension of the paper's Discussion
// (§3.1.4): replacing the naive workload prediction — "the amount of total
// unit of work is the same as the one observed before the heartbeat
// period" — with a Kalman filter that dynamically predicts the uncertain
// workload "in a more precise manner using educated guesses", as in
// Hoffmann et al.'s POET-style controllers [6].

// WorkloadPredictor estimates the application's per-heartbeat workload (in
// estimated-throughput units per beat) from noisy observations. The runtime
// manager divides the current state's estimated throughput by the predicted
// workload to obtain the base rate its search extrapolates from. A manager
// without one (Config.Predictor nil) runs the paper's default model: the
// next period's workload equals the last observed one, so the base rate is
// the observed rate.
type WorkloadPredictor interface {
	// Observe feeds one workload measurement.
	Observe(workload float64)
	// Predict returns the workload expected over the next period. Before
	// any observation it returns 0, meaning "no prediction".
	Predict() float64
}

// KalmanPredictor is a scalar Kalman filter over the workload signal with a
// random-walk process model:
//
//	x_{t+1} = x_t + w,  w ~ N(0, Q)       (workload drifts slowly)
//	z_t     = x_t + v,  v ~ N(0, R)       (rates are noisy measurements)
//
// Q/R (kalmanQ, kalmanR) trades responsiveness against smoothing: a larger
// Q would track phase changes faster, a larger R suppress more heartbeat
// jitter. The zero value is ready to use.
type KalmanPredictor struct {
	x      float64 // state estimate
	p      float64 // estimate covariance
	scale  float64 // magnitude normalization from the first observation
	primed bool
}

// The filter's process-noise (Q) and measurement-noise (R) variances,
// relative to the square of the first observation's magnitude.
const (
	kalmanQ = 1e-4
	kalmanR = 1e-2
)

// Observe implements WorkloadPredictor.
func (k *KalmanPredictor) Observe(z float64) {
	if !k.primed {
		k.x = z
		k.scale = z
		if k.scale == 0 {
			k.scale = 1
		}
		k.p = 1
		k.primed = true
		return
	}
	// Normalize noise magnitudes to the signal scale so the constants
	// behave across workloads of very different sizes.
	q := kalmanQ * (k.scale * k.scale)
	r := kalmanR * (k.scale * k.scale)
	// Time update (random walk): x stays, covariance grows.
	k.p += q
	// Measurement update.
	gain := k.p / (k.p + r)
	k.x += gain * (z - k.x)
	k.p *= 1 - gain
}

// Predict implements WorkloadPredictor.
func (k *KalmanPredictor) Predict() float64 {
	if !k.primed {
		return 0
	}
	return k.x
}
