// The benchmark is a module of its own so that it builds from this directory
// alone and stays out of the engine's `go build ./... && go test ./...`. Its
// path sits under the engine's, which is what lets it import internal/...
module github.com/spilly-db/spilly/benchmark

go 1.22

require github.com/spilly-db/spilly v0.0.0

replace github.com/spilly-db/spilly => ../
