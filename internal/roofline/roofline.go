// Package roofline implements the instruction Roofline analysis of the
// paper's §VII: warp-instruction throughput (Warp GIPS) against
// operational intensity (warp instructions per DRAM byte), with the
// device ceilings and the paper's Eq. (1) adapted ceiling that accounts
// for how many INT32 cores the X-drop kernel can actually keep busy per
// anti-diagonal iteration.
package roofline

import (
	"fmt"
	"math"
	"strings"
	"time"

	"logan/internal/cuda"
)

// Model holds the device ceilings for the Roofline plot.
type Model struct {
	Name       string
	PeakGIPS   float64 // theoretical warp GIPS (all pipes)
	INT32GIPS  float64 // attainable INT32 warp GIPS (paper: 220.8)
	MemBW      float64 // bytes/second
	INT32Lanes int     // MAXR in Eq. (1)
	SMs        int     // streaming multiprocessors, for the resident grid
}

// ForDevice extracts the model from a device spec.
func ForDevice(spec cuda.DeviceSpec) Model {
	return Model{
		Name:       spec.Name,
		PeakGIPS:   spec.TheoreticalWarpGIPS(),
		INT32GIPS:  spec.INT32WarpGIPS(),
		MemBW:      spec.HBMBandwidth,
		INT32Lanes: spec.INT32Lanes(),
		SMs:        spec.SMs,
	}
}

// Ridge returns the operational intensity (warp instr/byte) where the
// memory slope meets the INT32 ceiling. Kernels to the right are
// compute-bound.
func (m Model) Ridge() float64 { return m.INT32GIPS * 1e9 / m.MemBW }

// Attainable returns the roofline value at operational intensity oi: the
// lower of the INT32 ceiling and the memory slope.
func (m Model) Attainable(oi float64) float64 {
	mem := oi * m.MemBW / 1e9
	if mem < m.INT32GIPS {
		return mem
	}
	return m.INT32GIPS
}

// AdaptedCeiling evaluates the paper's Eq. (1) for a kernel launch: the
// INT32 ceiling scaled by the fraction of core rounds the kernel's
// iterations can fill. For iteration i with Nop_i operations and x_i
// concurrently active lanes across the resident grid, the utilization is
//
//	u_i = x_i / (MAXR * ceil(x_i / MAXR))
//
// and the ceiling is f * sum(Nop_i * u_i) / sum(Nop_i). The kernel's
// iteration aggregates provide the op-weighted mean active-lane count per
// block; the resident block count comes from the launch occupancy and
// the SM count. The term is cuda.KernelStats.CoreRounds, which the GPU
// timing model shares. (The exact per-iteration sum is replaced by its
// op-weighted mean-field value, which is what the aggregate counters
// support; for LOGAN's near-constant band widths within a launch the two
// agree closely.)
func AdaptedCeiling(m Model, s cuda.KernelStats) float64 {
	if s.Iter.SumNop == 0 {
		return m.INT32GIPS
	}
	// No active lane (x <= 0) is a zero ceiling: CoreRounds returns u = 0.
	_, u := s.CoreRounds(m.SMs, m.INT32Lanes)
	return m.INT32GIPS * u
}

// Report is the Fig. 13 data for one kernel.
type Report struct {
	Model          Model
	OI             float64 // warp instructions per DRAM byte
	AchievedGIPS   float64
	AdaptedCeiling float64
	Ridge          float64
	ComputeBound   bool
	// CeilingFraction is achieved / adapted ceiling: the paper's
	// "near-optimal" claim is this fraction approaching 1.
	CeilingFraction float64
}

// Analyze builds the Roofline report for a kernel given its modeled
// execution time.
func Analyze(m Model, s cuda.KernelStats, kernelTime time.Duration) Report {
	r := Report{Model: m, Ridge: m.Ridge()}
	r.OI = s.OperationalIntensity()
	if kernelTime > 0 {
		r.AchievedGIPS = float64(s.WarpInstrs) / kernelTime.Seconds() / 1e9
	}
	r.AdaptedCeiling = AdaptedCeiling(m, s)
	r.ComputeBound = r.OI >= r.Ridge
	if r.AdaptedCeiling > 0 {
		r.CeilingFraction = r.AchievedGIPS / r.AdaptedCeiling
	}
	return r
}

// Render draws the classic log-log Roofline as ASCII art with the kernel
// point marked 'K', for terminal reports and EXPERIMENTS.md.
func (r Report) Render(width, height int) string {
	if width < 20 {
		width = 60
	}
	if height < 8 {
		height = 16
	}
	// x: OI in [0.01, 100]; y: GIPS in [1, PeakGIPS*2].
	xMin, xMax := math.Log10(0.01), math.Log10(100)
	yMin, yMax := 0.0, math.Log10(r.Model.PeakGIPS*2)
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	put := func(oi, gips float64, c byte) {
		if oi <= 0 || gips <= 0 {
			return
		}
		x := int((math.Log10(oi) - xMin) / (xMax - xMin) * float64(width-1))
		y := int((math.Log10(gips) - yMin) / (yMax - yMin) * float64(height-1))
		if x < 0 || x >= width || y < 0 || y >= height {
			return
		}
		grid[height-1-y][x] = c
	}
	for px := 0; px < width*2; px++ {
		oi := math.Pow(10, xMin+(xMax-xMin)*float64(px)/float64(width*2-1))
		put(oi, r.Model.Attainable(oi), '-')
		if r.AdaptedCeiling > 0 && oi >= r.Ridge/4 {
			put(oi, r.AdaptedCeiling, '~')
		}
	}
	put(r.Ridge, r.Model.INT32GIPS, '+')
	put(r.OI, r.AchievedGIPS, 'K')
	var b strings.Builder
	fmt.Fprintf(&b, "Roofline %s (K = kernel, - = roof, ~ = adapted ceiling Eq.1)\n", r.Model.Name)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("+" + strings.Repeat("-", width) + "\n")
	fmt.Fprintf(&b, "OI=%.3f warpinstr/B  achieved=%.1f GIPS  adapted ceiling=%.1f GIPS  ridge=%.3f  compute-bound=%v\n",
		r.OI, r.AchievedGIPS, r.AdaptedCeiling, r.Ridge, r.ComputeBound)
	return b.String()
}
