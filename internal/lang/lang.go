// Package lang implements the Portal language surface (paper Section
// III): the operator set of Table I, layers, and the PortalExpr object
// that chains layers into a problem specification. It also implements
// the problem classification of Section II-B (pruning vs approximation
// problems) and the validity checks of Section II (operator
// decomposability, kernel monotonicity).
//
// # Panics
//
// Op.Identity and Op.Fold panic on the operators that reduce to a list
// rather than a value (FORALL, UNION, UNIONARG), with a message
// starting "lang: ": they have no identity value and no fold.
package lang

import (
	"errors"
	"fmt"
	"math"

	"portal/internal/expr"
	"portal/internal/storage"
)

// Op is a Portal reduction operator (Table I).
type Op int

// The Portal operators. FORALL is the sole "All" operator; SUM, PROD,
// ARGMIN, ARGMAX, MIN, and MAX are "Single" variable reduction
// operators; the K-variants plus UNION and UNIONARG are "Multi"
// variable reduction operators.
const (
	FORALL Op = iota
	SUM
	PROD
	ARGMIN
	ARGMAX
	MIN
	MAX
	UNION
	UNIONARG
	KARGMIN
	KARGMAX
	KMIN
	KMAX
)

var opNames = map[Op]string{
	FORALL: "FORALL", SUM: "SUM", PROD: "PROD",
	ARGMIN: "ARGMIN", ARGMAX: "ARGMAX", MIN: "MIN", MAX: "MAX",
	UNION: "UNION", UNIONARG: "UNIONARG",
	KARGMIN: "KARGMIN", KARGMAX: "KARGMAX", KMIN: "KMIN", KMAX: "KMAX",
}

// String returns the PortalOp:: name.
func (op Op) String() string {
	if s, ok := opNames[op]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", int(op))
}

// Category is the operator classification of Table I.
type Category int

// Operator categories.
const (
	// All operators return every input (no filtering).
	All Category = iota
	// Single variable reduction operators reduce a set to one value.
	Single
	// Multi variable reduction operators reduce a set to a smaller
	// set, usually of a specified length k.
	Multi
)

// String returns the Table I category name.
func (c Category) String() string {
	switch c {
	case All:
		return "All"
	case Single:
		return "Single"
	case Multi:
		return "Multi"
	default:
		return "?"
	}
}

// Category returns the Table I category of the operator.
func (op Op) Category() Category {
	switch op {
	case FORALL:
		return All
	case SUM, PROD, ARGMIN, ARGMAX, MIN, MAX:
		return Single
	default:
		return Multi
	}
}

// Comparative reports whether the operator filters by comparison —
// the property that classifies a problem as a pruning problem
// (Section II-B: "Comparative operators such as min or max result in
// a pruning problem").
func (op Op) Comparative() bool {
	switch op {
	case ARGMIN, ARGMAX, MIN, MAX, KARGMIN, KARGMAX, KMIN, KMAX:
		return true
	default:
		return false
	}
}

// MaxSide reports whether the operator chases maxima (MAX, ARGMAX and
// their k-variants) rather than minima.
func (op Op) MaxSide() bool {
	return op == MAX || op == ARGMAX || op == KMAX || op == KARGMAX
}

// Identity is the value of the operator over no points: 0 for SUM, 1
// for PROD, +Inf for the min side and -Inf for the max side.
func (op Op) Identity() float64 {
	switch {
	case op == SUM:
		return 0
	case op == PROD:
		return 1
	case op.MaxSide():
		return math.Inf(-1)
	case op.Comparative():
		return math.Inf(1)
	}
	panic("lang: " + op.String() + " has no identity value")
}

// Fold reduces one more value v into acc: acc + v, acc · v, or the
// lesser (greater on the max side) of the two, acc on a tie.
func (op Op) Fold(acc, v float64) float64 {
	switch {
	case op == SUM:
		return acc + v
	case op == PROD:
		return acc * v
	case op.MaxSide():
		if v > acc {
			return v
		}
		return acc
	case op.Comparative():
		if v < acc {
			return v
		}
		return acc
	}
	panic("lang: " + op.String() + " has no fold")
}

// Decomposable reports whether the operator satisfies the
// decomposability property over datasets (Section II): the reduction
// over a set equals the reduction of reductions over any partition.
// Every Table I operator is decomposable; the method exists so the
// validator can reject future non-decomposable extensions explicitly.
func (op Op) Decomposable() bool {
	_, ok := opNames[op]
	return ok
}

// NeedsK reports whether the operator requires a reduction length k.
func (op Op) NeedsK() bool {
	switch op {
	case KARGMIN, KARGMAX, KMIN, KMAX:
		return true
	default:
		return false
	}
}

// ReturnsIndices reports whether the operator's output is made of
// reference indices rather than kernel values.
func (op Op) ReturnsIndices() bool {
	switch op {
	case ARGMIN, ARGMAX, KARGMIN, KARGMAX, UNIONARG:
		return true
	default:
		return false
	}
}

// Layer couples an operator with a dataset and an optional
// kernel/modifying function (paper Section III: "Problems are built up
// by chaining multiple layers").
type Layer struct {
	// Op is the layer's reduction operator.
	Op Op
	// K is the reduction length for Multi operators that need one.
	K int
	// Data is the layer's dataset.
	Data *storage.Storage
	// Kernel is the kernel function (required on the innermost layer)
	// or modifying function (optional on other layers).
	Kernel *expr.Kernel
}

// Class is the problem classification of Section II-B.
type Class int

// Problem classes.
const (
	// PruneClass problems discard subtrees with no accuracy loss
	// (comparative operators or comparative kernels).
	PruneClass Class = iota
	// ApproxClass problems trade accuracy for speed by approximating
	// node contributions (arithmetic operators, non-comparative
	// kernels).
	ApproxClass
)

// String names the class.
func (c Class) String() string {
	if c == PruneClass {
		return "prune"
	}
	return "approximate"
}

// PortalExpr is the main object holding a problem definition. Layers
// are added outermost-first, mirroring `expr.addLayer(...)` order in
// the paper's code listings.
type PortalExpr struct {
	layers []Layer
}

// AddLayer appends a layer. The first call defines the outermost
// layer. kernel may be nil for non-innermost layers.
func (e *PortalExpr) AddLayer(op Op, data *storage.Storage, kernel *expr.Kernel) *PortalExpr {
	e.layers = append(e.layers, Layer{Op: op, Data: data, Kernel: kernel})
	return e
}

// AddLayerK appends a layer with a Multi operator requiring a
// reduction length k, e.g. (PortalOp::KARGMIN, k) in the paper.
func (e *PortalExpr) AddLayerK(op Op, k int, data *storage.Storage, kernel *expr.Kernel) *PortalExpr {
	e.layers = append(e.layers, Layer{Op: op, K: k, Data: data, Kernel: kernel})
	return e
}

// Layers returns the layer chain, outermost first.
func (e *PortalExpr) Layers() []Layer { return e.layers }

// Outer returns the outermost layer.
func (e *PortalExpr) Outer() Layer { return e.layers[0] }

// Inner returns the innermost layer.
func (e *PortalExpr) Inner() Layer { return e.layers[len(e.layers)-1] }

// Kernel returns the innermost layer's kernel function.
func (e *PortalExpr) Kernel() *expr.Kernel { return e.Inner().Kernel }

// Validation errors.
var (
	ErrNoLayers        = errors.New("lang: PortalExpr has no layers")
	ErrTooManyLayers   = errors.New("lang: this build supports two-layer (m=2) problems; compose more layers at the problem level")
	ErrNoKernel        = errors.New("lang: innermost layer requires a kernel function")
	ErrMissingK        = errors.New("lang: operator requires a reduction length k > 0")
	ErrNoData          = errors.New("lang: layer has no dataset")
	ErrDimMismatch     = errors.New("lang: layer datasets have different dimensionality")
	ErrNotDecomposable = errors.New("lang: operator violates the decomposability property")
	ErrInnerForall     = errors.New("lang: FORALL cannot be the innermost reduction")
	ErrListUnderScalar = errors.New("lang: a single-value outer reduction needs a value per query, and the inner operator returns a list")
)

// Validate checks the specification against the structural rules of
// Sections II and III.
func (e *PortalExpr) Validate() error {
	if len(e.layers) == 0 {
		return ErrNoLayers
	}
	if len(e.layers) > 2 {
		return ErrTooManyLayers
	}
	for i, l := range e.layers {
		if !l.Op.Decomposable() {
			return fmt.Errorf("%w: %s", ErrNotDecomposable, l.Op)
		}
		if l.Data == nil {
			return fmt.Errorf("%w (layer %d)", ErrNoData, i)
		}
		if l.Op.NeedsK() && l.K <= 0 {
			return fmt.Errorf("%w: %s (layer %d)", ErrMissingK, l.Op, i)
		}
	}
	if e.Inner().Kernel == nil {
		return ErrNoKernel
	}
	if len(e.layers) == 2 {
		if e.Inner().Op == FORALL {
			return ErrInnerForall
		}
		if outer, inner := e.layers[0].Op, e.Inner().Op; outer.Category() == Single && inner.Category() == Multi {
			return fmt.Errorf("%w: %s over %s", ErrListUnderScalar, outer, inner)
		}
		if e.layers[0].Data.Dim() != e.layers[1].Data.Dim() {
			return fmt.Errorf("%w: %d vs %d", ErrDimMismatch,
				e.layers[0].Data.Dim(), e.layers[1].Data.Dim())
		}
	}
	return nil
}

// Classify determines whether the problem is a pruning or an
// approximation problem (Section II-B): comparative operators or a
// comparative kernel make it a pruning problem; purely arithmetic
// operators with a non-comparative kernel make it an approximation
// problem.
func (e *PortalExpr) Classify() Class {
	for _, l := range e.layers {
		if l.Op.Comparative() {
			return PruneClass
		}
	}
	if k := e.Kernel(); k != nil && k.IsComparative() {
		return PruneClass
	}
	if e.Inner().Op == UNIONARG || e.Inner().Op == UNION {
		// ∪/∪arg without a comparative kernel returns everything;
		// treat as a pruning problem with nothing prunable (the
		// traversal degenerates to base cases), which is still exact.
		return PruneClass
	}
	return ApproxClass
}

// String renders the specification like the paper's code listings.
func (e *PortalExpr) String() string {
	s := "PortalExpr{"
	for i, l := range e.layers {
		if i > 0 {
			s += "; "
		}
		s += l.Op.String()
		if l.Op.NeedsK() {
			s += fmt.Sprintf("(k=%d)", l.K)
		}
		if l.Kernel != nil {
			s += ", " + l.Kernel.String()
		}
	}
	return s + "}"
}
