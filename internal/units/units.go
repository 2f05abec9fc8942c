// Package units defines the resource and money quantities shared by every
// layer of the ESG stack: vCPU/vGPU resource vectors and micro-cent money.
//
// The resource model follows §3.2 of the paper: a vCPU is the CPU allocation
// unit (memory is implicitly tied to it) and a vGPU is the minimum GPU
// partition of the sharing mechanism (one MIG instance on an A100, up to 7
// per GPU). vCPUs and vGPUs are allocated independently.
package units

import (
	"fmt"
	"time"
)

// VCPU counts virtual CPU allocation units.
type VCPU int

// VGPU counts virtual GPU allocation units (MIG instances).
type VGPU int

// Resources is a CPU/GPU resource vector, the currency of allocation
// decisions throughout the scheduler and the cluster model.
type Resources struct {
	CPU VCPU
	GPU VGPU
}

// Zero reports whether the vector holds no resources.
func (r Resources) Zero() bool { return r.CPU == 0 && r.GPU == 0 }

// Add returns r + o component-wise.
func (r Resources) Add(o Resources) Resources {
	return Resources{CPU: r.CPU + o.CPU, GPU: r.GPU + o.GPU}
}

// Sub returns r - o component-wise.
func (r Resources) Sub(o Resources) Resources {
	return Resources{CPU: r.CPU - o.CPU, GPU: r.GPU - o.GPU}
}

// Fits reports whether r fits within capacity c component-wise.
func (r Resources) Fits(c Resources) bool {
	return r.CPU <= c.CPU && r.GPU <= c.GPU
}

// NonNegative reports whether both components are >= 0.
func (r Resources) NonNegative() bool { return r.CPU >= 0 && r.GPU >= 0 }

func (r Resources) String() string {
	return fmt.Sprintf("{%dvCPU %dvGPU}", r.CPU, r.GPU)
}

// Money is an amount of money in micro-cents (1e-6 cent). Integer money
// keeps cost accounting exact and order-independent across runs, which the
// deterministic simulator relies on.
type Money int64

// Common money scales.
const (
	MicroCent Money = 1
	Cent      Money = 1_000_000
	Dollar    Money = 100 * Cent
)

// FromDollars converts a floating dollar amount to Money, rounding to the
// nearest micro-cent.
func FromDollars(d float64) Money {
	return Money(d*float64(Dollar) + 0.5)
}

// Cents reports the amount as floating cents.
func (m Money) Cents() float64 { return float64(m) / float64(Cent) }

// Dollars reports the amount as floating dollars.
func (m Money) Dollars() float64 { return float64(m) / float64(Dollar) }

func (m Money) String() string {
	return fmt.Sprintf("%.4f¢", m.Cents())
}

// Rate is a price per unit time, stored as micro-cents per second so that
// rate × duration arithmetic stays in integers.
type Rate int64

// RatePerHour builds a Rate from a dollars-per-hour price, the convention
// used by the paper (§4.1: vCPU $0.034/h, vGPU $0.67/h).
func RatePerHour(dollarsPerHour float64) Rate {
	perSecond := dollarsPerHour / 3600.0
	return Rate(perSecond*float64(Dollar) + 0.5)
}

// Cost returns the money accrued by this rate over d. Durations are rounded
// to the nearest microsecond before multiplying, keeping the product inside
// int64 range for any realistic simulation horizon.
func (r Rate) Cost(d time.Duration) Money {
	if d <= 0 {
		return 0
	}
	us := d.Microseconds()
	return Money(int64(r) * us / 1_000_000)
}
