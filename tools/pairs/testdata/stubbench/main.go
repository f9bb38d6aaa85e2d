// Command stubbench stands in for the repository benchmark in the pairs
// tests. It appends "<side> <args>" to the file named by $PAIRS_STUB_LOG,
// the side being its working directory's base name, then prints the next
// line of the file "canned" in that directory, cycling, with the count
// kept in the file "calls". A canned line is "<digest> <last line>": the
// digest ("-" for none) is printed as the benchmark prints it, and a last
// line of "exit" makes the stub exit 3 instead.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

func main() {
	dir, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	log, err := os.OpenFile(os.Getenv("PAIRS_STUB_LOG"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(log, filepath.Base(dir), strings.Join(os.Args[1:], " "))
	log.Close()
	raw, err := os.ReadFile("canned")
	if err != nil {
		panic(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	calls := 0
	if b, err := os.ReadFile("calls"); err == nil {
		calls, _ = strconv.Atoi(string(b))
	}
	if err := os.WriteFile("calls", []byte(strconv.Itoa(calls+1)), 0o644); err != nil {
		panic(err)
	}
	digest, last, _ := strings.Cut(lines[calls%len(lines)], " ")
	fmt.Println("workload stub")
	if digest != "-" {
		fmt.Println("  digest", digest)
	}
	if last == "exit" {
		fmt.Fprintln(os.Stderr, "stub: told to fail")
		os.Exit(3)
	}
	fmt.Println(last)
}
