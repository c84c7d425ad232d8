// The benchmark is a module of its own, so that it builds from this directory
// on whatever commit the rest of the tree is at. Its import paths sit under
// the repository's module path, which is what lets it import repro/internal.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
