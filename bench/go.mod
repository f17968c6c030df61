// The benchmark is a module of its own so that the repo's build files stay
// untouched; the module path sits under repro/ so it may import
// repro/internal/... from the parent checkout.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
