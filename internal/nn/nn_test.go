package nn

import (
	"math"
	"testing"
	"testing/quick"

	"harmony/internal/quickseed"
)

func almost(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol*(1+math.Abs(b))
}

func TestDenseForwardKnownValues(t *testing.T) {
	l := Dense{In: 2, Out: 2}
	// W = [[1,2],[3,4]], b = [0.5, -0.5]
	params := []float32{1, 2, 3, 4, 0.5, -0.5}
	x := []float32{1, 1}
	y := make([]float32, 2)
	stash := make([]float32, 2)
	l.Forward(params, x, y, stash, 1)
	if y[0] != 4.5 || y[1] != 5.5 {
		t.Fatalf("y = %v, want [4.5 5.5]", y)
	}
	if stash[0] != 1 || stash[1] != 1 {
		t.Fatalf("stash = %v", stash)
	}
}

func TestReLUClampsForward(t *testing.T) {
	l := Dense{In: 1, Out: 2, ReLU: true}
	params := []float32{1, -1, 0, 0} // W=[[1,-1]], b=0
	y := make([]float32, 2)
	stash := make([]float32, 1)
	l.Forward(params, []float32{2}, y, stash, 1)
	if y[0] != 2 || y[1] != 0 {
		t.Fatalf("y = %v, want [2 0]", y)
	}
}

func TestSoftmaxXentKnown(t *testing.T) {
	// Uniform logits: loss = ln(C).
	logits := []float32{0, 0, 0, 0}
	dl := make([]float32, 4)
	loss := SoftmaxXent(logits, []int{2}, dl, 1, 4)
	if !almost(float64(loss), math.Log(4), 1e-5) {
		t.Fatalf("loss = %v, want ln4 = %v", loss, math.Log(4))
	}
	// Gradient sums to zero and is negative only at the label.
	var sum float32
	for j, g := range dl {
		sum += g
		if (j == 2) != (g < 0) {
			t.Fatalf("dlogits = %v", dl)
		}
	}
	if !almost(float64(sum), 0, 1e-5) {
		t.Fatalf("gradient sum = %v", sum)
	}
}

// Numerical gradient check of the full layer stack: dense+ReLU →
// dense → softmax cross-entropy.
func TestGradientCheck(t *testing.T) {
	l1 := Dense{In: 3, Out: 4, ReLU: true}
	l2 := Dense{In: 4, Out: 2}
	p1 := make([]float32, l1.ParamCount())
	p2 := make([]float32, l2.ParamCount())
	XavierInit(l1, p1, 1)
	XavierInit(l2, p2, 2)
	x := []float32{0.3, -0.7, 1.2, -0.1, 0.9, 0.4}
	labels := []int{1, 0}
	batch := 2

	forward := func() float32 {
		h := make([]float32, batch*4)
		s1 := make([]float32, batch*3)
		l1.Forward(p1, x, h, s1, batch)
		logits := make([]float32, batch*2)
		s2 := make([]float32, batch*4)
		l2.Forward(p2, h, logits, s2, batch)
		dl := make([]float32, batch*2)
		return SoftmaxXent(logits, labels, dl, batch, 2)
	}

	// Analytic gradients.
	h := make([]float32, batch*4)
	s1 := make([]float32, batch*3)
	l1.Forward(p1, x, h, s1, batch)
	logits := make([]float32, batch*2)
	s2 := make([]float32, batch*4)
	l2.Forward(p2, h, logits, s2, batch)
	dl := make([]float32, batch*2)
	SoftmaxXent(logits, labels, dl, batch, 2)
	g2 := make([]float32, l2.ParamCount())
	dh := make([]float32, batch*4)
	l2.Backward(p2, s2, dl, dh, g2, batch)
	g1 := make([]float32, l1.ParamCount())
	l1.Backward(p1, s1, dh, nil, g1, batch)

	check := func(params, grad []float32, name string) {
		t.Helper()
		const eps = 1e-3
		for i := 0; i < len(params); i += 3 { // sample every 3rd param
			orig := params[i]
			params[i] = orig + eps
			up := float64(forward())
			params[i] = orig - eps
			down := float64(forward())
			params[i] = orig
			numeric := (up - down) / (2 * eps)
			if !almost(float64(grad[i]), numeric, 0.05) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", name, i, grad[i], numeric)
			}
		}
	}
	check(p1, g1, "layer1")
	check(p2, g2, "layer2")
}

func TestSGDStep(t *testing.T) {
	w := []float32{1, 2}
	g := []float32{10, -10}
	SGD(w, g, 0.1)
	if w[0] != 0 || w[1] != 3 {
		t.Fatalf("w = %v", w)
	}
	if g[0] != 0 || g[1] != 0 {
		t.Fatal("gradient should be reset")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)² with Adam; gradient = 2(w-3).
	w := []float32{0}
	g := make([]float32, 1)
	m := make([]float32, 1)
	v := make([]float32, 1)
	for step := 1; step <= 500; step++ {
		g[0] = 2 * (w[0] - 3)
		Adam(w, g, m, v, 0.05, 0.9, 0.999, 1e-8, step)
	}
	if !almost(float64(w[0]), 3, 0.02) {
		t.Fatalf("w = %v, want ≈3", w[0])
	}
}

func TestXavierDeterministicAndBounded(t *testing.T) {
	l := Dense{In: 16, Out: 16}
	a := make([]float32, l.ParamCount())
	b := make([]float32, l.ParamCount())
	XavierInit(l, a, 7)
	XavierInit(l, b, 7)
	limit := math.Sqrt(6.0 / 32.0)
	nonzero := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("XavierInit not deterministic")
		}
		if math.Abs(float64(a[i])) > limit {
			t.Fatalf("weight %v exceeds Xavier limit %v", a[i], limit)
		}
		if a[i] != 0 {
			nonzero++
		}
	}
	if nonzero < l.In*l.Out/2 {
		t.Fatal("suspiciously many zero weights")
	}
	// Bias is zero.
	for i := l.In * l.Out; i < l.ParamCount(); i++ {
		if a[i] != 0 {
			t.Fatal("bias should start at zero")
		}
	}
}

func TestArgmax(t *testing.T) {
	data := []float32{1, 5, 2, 9, 0, 3}
	if Argmax(data, 0, 3) != 1 || Argmax(data, 1, 3) != 0 {
		t.Fatal("argmax wrong")
	}
}

// Property: softmax gradient always sums to ~0 per row and loss is
// non-negative.
func TestSoftmaxProperties(t *testing.T) {
	f := func(raw []int8, labelRaw uint8) bool {
		classes := 4
		if len(raw) < classes {
			return true
		}
		logits := make([]float32, classes)
		for j := 0; j < classes; j++ {
			logits[j] = float32(raw[j]) / 8
		}
		dl := make([]float32, classes)
		label := int(labelRaw) % classes
		loss := SoftmaxXent(logits, []int{label}, dl, 1, classes)
		if loss < 0 {
			return false
		}
		var sum float64
		for _, g := range dl {
			sum += float64(g)
		}
		return math.Abs(sum) < 1e-5
	}
	if err := quick.Check(f, quickseed.Config(t, 200)); err != nil {
		t.Fatal(err)
	}
}

// Property: ReLU backward never propagates gradient through
// non-positive pre-activations.
func TestReLUBackwardMasksProperty(t *testing.T) {
	f := func(xRaw, dyRaw int8) bool {
		l := Dense{In: 1, Out: 1, ReLU: true}
		params := []float32{1, 0} // identity weight, zero bias
		x := []float32{float32(xRaw)}
		y := make([]float32, 1)
		stash := make([]float32, 1)
		l.Forward(params, x, y, stash, 1)
		dy := []float32{float32(dyRaw)}
		dx := make([]float32, 1)
		grad := make([]float32, 2)
		l.Backward(params, stash, dy, dx, grad, 1)
		if xRaw <= 0 {
			return dx[0] == 0 && grad[0] == 0
		}
		return dx[0] == float32(dyRaw) && grad[0] == float32(xRaw)*float32(dyRaw)
	}
	if err := quick.Check(f, quickseed.Config(t, 200)); err != nil {
		t.Fatal(err)
	}
}

func TestConvForwardKnownValues(t *testing.T) {
	// 1x3x3 input, single 2x2 filter of ones, bias 0.5: each output
	// is the window sum + 0.5.
	c := Conv2D{Cin: 1, H: 3, W: 3, Cout: 1, K: 2}
	params := []float32{1, 1, 1, 1, 0.5}
	x := []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	y := make([]float32, c.OutSize())
	stash := make([]float32, c.StashSize())
	c.Forward(params, x, y, stash, 1)
	want := []float32{12.5, 16.5, 24.5, 28.5}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
	if stash[4] != 5 {
		t.Fatal("stash should hold the input")
	}
}

func TestConvGradientCheck(t *testing.T) {
	c := Conv2D{Cin: 2, H: 4, W: 4, Cout: 3, K: 3, ReLU: true}
	params := make([]float32, c.ParamCount())
	InitKernel(c, params, 5)
	batch := 2
	x := make([]float32, batch*c.InSize())
	rng := uint64(99)
	for i := range x {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		x[i] = float32(rng>>11)/float32(1<<53) - 0.5
	}
	labels := []int{1, 2}
	classes := c.OutSize()

	forward := func() float32 {
		y := make([]float32, batch*c.OutSize())
		stash := make([]float32, batch*c.StashSize())
		c.Forward(params, x, y, stash, batch)
		dl := make([]float32, batch*classes)
		return SoftmaxXent(y, labels, dl, batch, classes)
	}
	// Analytic gradient.
	y := make([]float32, batch*c.OutSize())
	stash := make([]float32, batch*c.StashSize())
	c.Forward(params, x, y, stash, batch)
	dl := make([]float32, batch*classes)
	SoftmaxXent(y, labels, dl, batch, classes)
	grad := make([]float32, c.ParamCount())
	dx := make([]float32, batch*c.InSize())
	c.Backward(params, stash, dl, dx, grad, batch)

	const eps = 1e-2
	for i := 0; i < c.ParamCount(); i += 7 {
		orig := params[i]
		params[i] = orig + eps
		up := float64(forward())
		params[i] = orig - eps
		down := float64(forward())
		params[i] = orig
		numeric := (up - down) / (2 * eps)
		if !almost(float64(grad[i]), numeric, 0.08) {
			t.Fatalf("conv grad[%d]: analytic %v vs numeric %v", i, grad[i], numeric)
		}
	}
	// Input gradient too (spot check).
	for i := 0; i < len(x); i += 11 {
		orig := x[i]
		x[i] = orig + eps
		up := float64(forward())
		x[i] = orig - eps
		down := float64(forward())
		x[i] = orig
		numeric := (up - down) / (2 * eps)
		if !almost(float64(dx[i]), numeric, 0.08) {
			t.Fatalf("conv dx[%d]: analytic %v vs numeric %v", i, dx[i], numeric)
		}
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	p := MaxPool2D{C: 1, H: 4, W: 4, P: 2}
	x := []float32{
		1, 2, 0, 0,
		3, 4, 0, 9,
		0, 0, 5, 0,
		7, 0, 0, 6,
	}
	y := make([]float32, p.OutSize())
	stash := make([]float32, p.StashSize())
	p.Forward(nil, x, y, stash, 1)
	want := []float32{4, 9, 7, 6}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("pool y = %v, want %v", y, want)
		}
	}
	dy := []float32{1, 2, 3, 4}
	dx := make([]float32, p.InSize())
	p.Backward(nil, stash, dy, dx, nil, 1)
	// Gradient lands exactly on the max positions.
	if dx[5] != 1 || dx[7] != 2 || dx[12] != 3 || dx[15] != 4 {
		t.Fatalf("pool dx = %v", dx)
	}
	var sum float32
	for _, v := range dx {
		sum += v
	}
	if sum != 10 {
		t.Fatalf("pool gradient mass %v, want 10", sum)
	}
}

func TestKernelInterfaceSizes(t *testing.T) {
	ks := []Kernel{
		Dense{In: 8, Out: 4, ReLU: true},
		Conv2D{Cin: 1, H: 8, W: 8, Cout: 4, K: 3, ReLU: true},
		MaxPool2D{C: 4, H: 6, W: 6, P: 2},
	}
	for _, k := range ks {
		if k.Name() == "" || k.InSize() <= 0 || k.OutSize() <= 0 {
			t.Fatalf("bad kernel metadata for %T", k)
		}
		if k.FLOPsPerSample() <= 0 {
			t.Fatalf("%s has no FLOPs", k.Name())
		}
	}
	if (MaxPool2D{C: 1, H: 4, W: 4, P: 2}).ParamCount() != 0 {
		t.Fatal("pool has no params")
	}
}

func TestInitKernelZerosBias(t *testing.T) {
	c := Conv2D{Cin: 1, H: 5, W: 5, Cout: 3, K: 3}
	params := make([]float32, c.ParamCount())
	InitKernel(c, params, 1)
	for i := c.ParamCount() - c.Cout; i < c.ParamCount(); i++ {
		if params[i] != 0 {
			t.Fatal("conv bias should start zero")
		}
	}
	nonzero := 0
	for _, v := range params[:c.ParamCount()-c.Cout] {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 20 {
		t.Fatal("weights look uninitialized")
	}
	// Pool init is a no-op and must not panic on empty params.
	InitKernel(MaxPool2D{C: 1, H: 2, W: 2, P: 2}, nil, 1)
}
