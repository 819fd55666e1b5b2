// Command speedlightvet runs Speedlight's protocol-invariant analyzers.
//
// It speaks the go vet tool protocol, so the way to run it is:
//
//	go build -o /tmp/speedlightvet ./cmd/speedlightvet
//	go vet -vettool=/tmp/speedlightvet ./...
//
// (`make lint`). Given package patterns directly, it prints that line.
package main

import "speedlight/internal/lint"

func main() { lint.Main() }
