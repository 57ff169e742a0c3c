// lisa-doc generates textbook-style markdown documentation from a LISA
// model — the automatic documentation generation the paper describes in
// §1.1 as a replacement for hand-written (and usually stale) manuals.
//
// Usage:
//
//	lisa-doc -model c62x > c62x.md
package main

import (
	"flag"
	"fmt"

	"golisa/internal/cli"
	"golisa/internal/docgen"
)

func main() {
	modelName := flag.String("model", "simple16", "builtin model name or path to a .lisa file")
	cli.AddVersionFlag(flag.CommandLine)
	flag.Parse()
	cli.HandleVersion()
	fmt.Print(docgen.Generate(cli.LoadModel(*modelName).Model))
}
