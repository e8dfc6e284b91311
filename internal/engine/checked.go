package engine

import (
	"fmt"

	"portal/internal/codegen"
	"portal/internal/tree"
)

// validate checks a tree pair against what the Problem was compiled
// for, before Bind can touch either tree. The compiled executable is
// specialized on dimensionality and storage layout, and a self-join
// spec (outer and inner read the same storage, e.g. 2pc) produces
// kernels that assume both sides index one point set — a mismatched
// binding would read out of bounds or silently double-count rather
// than fail cleanly, so every compatibility rule is enforced here as a
// typed error.
func (p *Problem) validate(qt, rt *tree.Tree) error {
	if qt == nil || rt == nil {
		return fmt.Errorf("engine: query has unbound trees")
	}
	spec := p.Plan.Spec
	d := spec.Outer().Data.Dim()
	if qt.Dim() != rt.Dim() {
		return fmt.Errorf("engine: query binds a %d-dimensional query tree to a %d-dimensional reference tree",
			qt.Dim(), rt.Dim())
	}
	if qt.Dim() != d {
		return fmt.Errorf("engine: query binds %d-dimensional trees to a problem compiled for %d dimensions",
			qt.Dim(), d)
	}
	if ql, wl := qt.Data.Layout(), spec.Outer().Data.Layout(); ql != wl {
		return fmt.Errorf("engine: query layout %v, problem compiled for %v", ql, wl)
	}
	if rl, wl := rt.Data.Layout(), spec.Inner().Data.Layout(); rl != wl {
		return fmt.Errorf("engine: reference layout %v, problem compiled for %v", rl, wl)
	}
	if spec.Outer().Data == spec.Inner().Data && qt != rt {
		return fmt.Errorf("engine: problem %q is a self-join; the query must bind the same tree on both sides", p.Plan.Name)
	}
	return nil
}

// ExecuteOnChecked is ExecuteOn for a tree pair that was not built
// from the Problem's own spec — the serving path, which binds a cached
// Problem to a snapshot's tree and a per-request query tree. The pair
// is validated first, so an incompatible binding is an error and never
// reaches Bind. The ExecuteOn concurrency contract holds unchanged.
func (p *Problem) ExecuteOnChecked(qt, rt *tree.Tree, cfg Config) (*codegen.Output, error) {
	if err := p.validate(qt, rt); err != nil {
		return nil, err
	}
	return p.executeOn(qt, rt, cfg, 0, false)
}
