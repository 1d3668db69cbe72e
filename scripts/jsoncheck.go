// Command jsoncheck exits nonzero unless every argument is a file
// containing valid JSON. check.sh uses it to validate the CLI's exports
// without assuming a system python or jq.
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func main() {
	for _, path := range os.Args[1:] {
		b, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if !json.Valid(b) {
			fmt.Fprintf(os.Stderr, "%s: invalid JSON\n", path)
			os.Exit(1)
		}
	}
}
