// Command figures regenerates every figure of Kung's "Deadlock
// Avoidance for Systolic Communication" (1988) from the library:
//
//	figures          # all figures
//	figures -fig 7   # one figure
//
// Output is text in the style of the paper.
package main

import (
	"flag"
	"fmt"
	"os"

	"systolic/internal/cli"
)

func main() {
	figFlag := flag.Int("fig", 0, "figure to regenerate (1-10); 0 = all")
	flag.Parse()

	var err error
	if *figFlag == 0 {
		err = cli.AllFigures(os.Stdout)
	} else {
		err = cli.Figure(os.Stdout, *figFlag)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}
