package experiments

import (
	"fmt"
	"io"
	"math"

	"darksim/internal/apps"
	"darksim/internal/report"
	"darksim/internal/tech"
	"darksim/internal/trace"
	"darksim/internal/vf"
)

// Fig1Result is the scaling-factor table of Figure 1 plus the per-node
// quantities derived from it (core area, nominal Vdd/fmax, Eq.(2) k).
type Fig1Result struct {
	Specs []tech.Spec
}

// Fig1 reproduces the Figure 1 table.
func Fig1() (*Fig1Result, error) {
	var specs []tech.Spec
	for _, n := range tech.Nodes() {
		s, err := tech.SpecFor(n)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return &Fig1Result{Specs: specs}, nil
}

// Tables implements Renderer.
func (r *Fig1Result) Tables() []*report.Table {
	t := &report.Table{
		Title:   "Figure 1: ITRS scaling factors (w.r.t. 22 nm) and derived node specs",
		Columns: []string{"node", "Vdd", "freq", "cap", "area", "core mm²", "Vdd nom [V]", "fmax [GHz]", "k [GHz·V]"},
	}
	for _, s := range r.Specs {
		t.AddRow(
			s.Node.String(),
			fmt.Sprintf("%.2f", s.Factors.Vdd),
			fmt.Sprintf("%.2f", s.Factors.Frequency),
			fmt.Sprintf("%.2f", s.Factors.Capacitance),
			fmt.Sprintf("%.2f", s.Factors.Area),
			fmt.Sprintf("%.1f", s.CoreAreaMM2),
			fmt.Sprintf("%.2f", s.VddNominal),
			fmt.Sprintf("%.1f", s.FmaxGHz),
			fmt.Sprintf("%.2f", s.K),
		)
	}
	return []*report.Table{t}
}

// Render implements Renderer.
func (r *Fig1Result) Render(w io.Writer) error { return renderTables(w, r.Tables()) }

// Fig2Result is the Eq.(2) frequency-vs-voltage design space at 22 nm with
// its NTC/STC/Boost regions.
type Fig2Result struct {
	Curve  vf.Curve
	Vdd    []float64
	FGHz   []float64
	Region []vf.Region
}

// Fig2 sweeps Vdd from just above Vth to 1.5 V (the figure's x-range).
func Fig2() (*Fig2Result, error) {
	curve, err := vf.CurveFor(tech.Node22)
	if err != nil {
		return nil, err
	}
	res := &Fig2Result{Curve: curve}
	for v := 0.20; v <= 1.50+1e-9; v += 0.02 {
		res.Vdd = append(res.Vdd, v)
		res.FGHz = append(res.FGHz, curve.FrequencyGHz(v))
		res.Region = append(res.Region, curve.RegionOf(v))
	}
	return res, nil
}

// Tables implements Renderer: the design-space sweep in long form, one row
// per sampled voltage.
func (r *Fig2Result) Tables() []*report.Table {
	t := &report.Table{
		Title:   "Figure 2: frequency vs voltage (Eq. 2, 22 nm, k≈3.7 GHz·V, Vth=178 mV)",
		Columns: []string{"Vdd [V]", "f [GHz]", "region"},
	}
	for i := range r.Vdd {
		t.AddRow(fmt.Sprintf("%.2f", r.Vdd[i]),
			fmt.Sprintf("%.3f", r.FGHz[i]),
			r.Region[i].String())
	}
	t.AddNote("STC floor %.2f V, nominal %.2f V -> fmax %.2f GHz",
		vf.STCFloorVolts, r.Curve.VddNominal, r.Curve.FmaxGHz)
	return []*report.Table{t}
}

// Render implements Renderer.
func (r *Fig2Result) Render(w io.Writer) error {
	c := &report.Chart{
		Title:  "Figure 2: frequency vs voltage (Eq. 2, 22 nm, k≈3.7 GHz·V, Vth=178 mV)",
		XLabel: "Vdd [V]",
	}
	// Split the sweep into one series per region so the chart legend
	// shows the NTC/STC/Boost structure.
	names := []string{"NTC", "STC", "Boost"}
	xs := make([][]float64, 3)
	ys := make([][]float64, 3)
	for i := range r.Vdd {
		k := int(r.Region[i])
		xs[k] = append(xs[k], r.Vdd[i])
		ys[k] = append(ys[k], r.FGHz[i])
	}
	if err := c.RenderLines(w, names, xs, ys); err != nil {
		return err
	}
	fmt.Fprintf(w, "STC floor %.2f V, nominal %.2f V -> fmax %.2f GHz\n",
		vf.STCFloorVolts, r.Curve.VddNominal, r.Curve.FmaxGHz)
	return nil
}

// Fig3Result compares the synthetic McPAT samples with the Equation (1)
// fit for x264 at 22 nm, single thread (Figure 3).
type Fig3Result struct {
	Rows      []trace.Row
	ModelW    []float64 // fitted model evaluated at each row
	CeffNF    float64
	PindW     float64
	RMSErrorW float64
}

// Fig3 generates the trace, fits the model and evaluates the fit.
func Fig3() (*Fig3Result, error) {
	x, err := apps.ByName("x264")
	if err != nil {
		return nil, err
	}
	rows, err := trace.Generate(x, 2015)
	if err != nil {
		return nil, err
	}
	fit, err := trace.FitModel(rows, x.AlphaSingle)
	if err != nil {
		return nil, err
	}
	res := &Fig3Result{Rows: rows, CeffNF: fit.CeffNF, PindW: fit.PindW}
	var sq float64
	for _, row := range rows {
		m := fit.Power(x.AlphaSingle, row.Vdd, row.FGHz, row.TempC)
		res.ModelW = append(res.ModelW, m)
		d := m - row.PowerW
		sq += d * d
	}
	res.RMSErrorW = rms(sq, len(rows))
	return res, nil
}

// Tables implements Renderer: every synthetic sample next to the model fit.
func (r *Fig3Result) Tables() []*report.Table {
	t := &report.Table{
		Title:   "Figure 3: x264 @22nm, 1 thread — Eq.(1) model vs experimental samples",
		Columns: []string{"f [GHz]", "Vdd [V]", "T [°C]", "experimental [W]", "model [W]"},
	}
	for i, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%.2f", row.FGHz),
			fmt.Sprintf("%.2f", row.Vdd),
			fmt.Sprintf("%.1f", row.TempC),
			fmt.Sprintf("%.3f", row.PowerW),
			fmt.Sprintf("%.3f", r.ModelW[i]))
	}
	t.AddNote("fit: Ceff=%.3f nF, Pind=%.3f W, RMS error %.3f W over %d samples",
		r.CeffNF, r.PindW, r.RMSErrorW, len(r.Rows))
	return []*report.Table{t}
}

// Render implements Renderer.
func (r *Fig3Result) Render(w io.Writer) error {
	c := &report.Chart{
		Title:  "Figure 3: x264 @22nm, 1 thread — Eq.(1) model vs experimental samples",
		XLabel: "f [GHz]",
	}
	var fx, exp, mod []float64
	for i, row := range r.Rows {
		fx = append(fx, row.FGHz)
		exp = append(exp, row.PowerW)
		mod = append(mod, r.ModelW[i])
	}
	if err := c.RenderLines(w, []string{"experimental", "model"}, [][]float64{fx, fx}, [][]float64{exp, mod}); err != nil {
		return err
	}
	fmt.Fprintf(w, "fit: Ceff=%.3f nF, Pind=%.3f W, RMS error %.3f W over %d samples\n",
		r.CeffNF, r.PindW, r.RMSErrorW, len(r.Rows))
	return nil
}

// Fig4Result holds the speed-up curves of Figure 4.
type Fig4Result struct {
	Threads []int
	Apps    []string
	Speedup map[string][]float64
}

// Fig4 evaluates the speed-up factors for x264, bodytrack, canneal between
// 16 and 64 threads (the figure's x-range) at 2 GHz.
func Fig4() (*Fig4Result, error) {
	res := &Fig4Result{
		Threads: []int{16, 24, 32, 40, 48, 56, 64},
		Apps:    []string{"x264", "bodytrack", "canneal"},
		Speedup: map[string][]float64{},
	}
	for _, name := range res.Apps {
		a, err := apps.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, n := range res.Threads {
			res.Speedup[name] = append(res.Speedup[name], a.Speedup(n))
		}
	}
	return res, nil
}

// Tables implements Renderer.
func (r *Fig4Result) Tables() []*report.Table {
	t := &report.Table{
		Title:   "Figure 4: speed-up vs parallel threads (Amdahl, gem5-calibrated fractions)",
		Columns: append([]string{"app"}, intHeaders(r.Threads)...),
	}
	for _, name := range r.Apps {
		t.AddFloatRow(name, 2, r.Speedup[name]...)
	}
	return []*report.Table{t}
}

// Render implements Renderer.
func (r *Fig4Result) Render(w io.Writer) error { return renderTables(w, r.Tables()) }

func intHeaders(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%d", x)
	}
	return out
}

func rms(sumSquares float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return math.Sqrt(sumSquares / float64(n))
}
