//go:build ignore

// Gendoc rewrites the generated block of docs/PROTOCOL.md from the
// transition functions in internal/coherence. Run it with
//
//	go generate ./internal/protocheck
//
// TestProtocolDoc fails while the committed block is stale.
package main

import (
	"fmt"
	"os"

	"cmpnurapid/internal/protocheck"
)

func main() {
	const path = "../../docs/PROTOCOL.md"
	doc, err := os.ReadFile(path)
	if err == nil {
		doc, err = protocheck.SpliceDoc(doc, protocheck.GenerateDoc(protocheck.DocExplorations()))
	}
	if err == nil {
		err = os.WriteFile(path, doc, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gendoc:", err)
		os.Exit(1)
	}
}
