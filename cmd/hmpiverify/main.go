// Command hmpiverify replays recorded HMPT traces and checks them
// against the semantics of the message-passing model. It is the dynamic
// counterpart of hmpivet: where hmpivet analyzes source, hmpiverify
// checks what one execution actually did — message matching and FIFO
// order, wait-for-graph deadlock over the operations pending at
// snapshot, collective-sequence consistency across the members of each
// communicator, group-lifecycle leak accounting (ULFM recreate paths
// included), AnySource message races, and nonblocking-request
// lifecycles (every posted Isend/Irecv must reach a wait or a successful
// test in clean runs).
//
// Usage:
//
//	hmpiverify run.hmpt                    # verify one trace
//	hmpiverify -checks deadlock,groups run.hmpt
//	hmpiverify -json run.hmpt              # machine-readable findings
//	hmpiverify -list                       # print the checks and exit
//
// The exit status is 1 when any trace contains a violation, 2 on usage
// or read errors, 0 otherwise (warnings and infos do not fail the run).
// Produce traces with hmpirun -tracefile or trace.Recorder directly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/trace"
	"repro/internal/verify"
)

// checkDocs explains each check for -list.
var checkDocs = map[string]string{
	"matching": "every receive has a recorded send, FIFO channels do not reorder, sends are eventually received",
	"deadlock": "wait-for-graph analysis over operations still pending at snapshot",
	"collseq":  "members of each communicator ran the same collectives in the same order",
	"groups":   "every group creation is balanced by a dissolution record",
	"races":    "AnySource receives whose match was decided by arrival order",
	"requests": "every posted nonblocking request reaches a wait or successful test (clean runs)",
}

// fileFinding is one finding tagged with its trace file (the -json shape).
type fileFinding struct {
	File string `json:"file"`
	verify.Finding
}

func (f fileFinding) String() string {
	return fmt.Sprintf("%s: %s", f.File, f.Finding)
}

func main() {
	checks := flag.String("checks", "", "comma-separated checks to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	list := flag.Bool("list", false, "print the available checks and exit")
	flag.Parse()
	if *list {
		for _, c := range verify.AllChecks {
			fmt.Printf("%-10s %s\n", c, checkDocs[c])
		}
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: hmpiverify [-checks a,b] [-json] <trace.hmpt>...")
		os.Exit(2)
	}
	os.Exit(run(flag.Args(), *checks, *jsonOut, os.Stdout))
}

// run verifies each trace file and returns the process exit code.
func run(files []string, checks string, jsonOut bool, out io.Writer) int {
	var sel []string
	if checks != "" {
		sel = strings.Split(checks, ",")
	}
	var finds []fileFinding
	violations := 0
	for _, path := range files {
		d, err := trace.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hmpiverify: %v\n", err)
			return 2
		}
		rep, err := verify.Run(d, sel...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hmpiverify: %v\n", err)
			return 2
		}
		violations += len(rep.Violations())
		for _, f := range rep.Findings {
			finds = append(finds, fileFinding{File: path, Finding: f})
		}
	}
	if jsonOut {
		if finds == nil {
			finds = []fileFinding{}
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(finds); err != nil {
			fmt.Fprintf(os.Stderr, "hmpiverify: %v\n", err)
			return 2
		}
	} else {
		for _, f := range finds {
			fmt.Fprintf(out, "%s\n", f)
		}
		if violations == 0 {
			fmt.Fprintf(out, "hmpiverify: %d trace(s) verified, no violations\n", len(files))
		}
	}
	if violations > 0 {
		return 1
	}
	return 0
}
