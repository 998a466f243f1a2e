// Command spantreed serves spanning trees over HTTP: a registry of
// named graphs, each backed by a pool of pre-built zero-allocation
// sessions, with bounded-in-flight admission control. See
// internal/serve for the API.
package main

import (
	"fmt"
	"os"

	"spantree/internal/cli"
)

func main() {
	if err := cli.RunSpanTreeD(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "spantreed:", err)
		os.Exit(1)
	}
}
