// Command hmpid is the HMPI job service: a long-running daemon that
// keeps the cluster model and the selection cache warm across jobs and
// runs many tenants' jobs concurrently through a worker pool, with
// admission control priced by HMPI_Timeof. The same binary is the
// client: every job-API op (submit/status/result/cancel/watch/stats/
// shutdown) is a subcommand speaking JSON over the daemon's unix
// control socket.
//
// Usage:
//
//	hmpid serve  -socket /tmp/hmpid.sock -workers 8 -budget 1
//	hmpid submit -socket /tmp/hmpid.sock -app em3d -nodes 400000 -wait
//	hmpid submit -socket /tmp/hmpid.sock -app matmul -n 90 -tenant acme
//	hmpid status -socket /tmp/hmpid.sock j1
//	hmpid watch  -socket /tmp/hmpid.sock j1
//	hmpid result -socket /tmp/hmpid.sock j1
//	hmpid cancel -socket /tmp/hmpid.sock j1
//	hmpid stats  -socket /tmp/hmpid.sock
//	hmpid shutdown -socket /tmp/hmpid.sock
//
// submit shares its job flags with hmpirun (internal/jobspec): any flag
// line that runs there submits here. Client output is JSON, one job or
// stats object per line, so scripts can pipe it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"

	"repro/internal/jobspec"
	"repro/internal/service"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "serve":
		cmdServe(args)
	case "submit":
		cmdSubmit(args)
	case "status", "result", "cancel":
		cmdJobOp(cmd, args)
	case "watch":
		cmdWatch(args)
	case "stats":
		cmdStats(args)
	case "shutdown":
		cmdShutdown(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: hmpid serve|submit|status|result|watch|cancel|stats|shutdown [flags] [job-id]")
	os.Exit(2)
}

// socketFlag registers the shared -socket flag on a subcommand flag set.
func socketFlag(fs *flag.FlagSet) *string {
	return fs.String("socket", "/tmp/hmpid.sock", "daemon control socket path")
}

// cmdServe runs the daemon until a client sends shutdown.
func cmdServe(args []string) {
	fs := flag.NewFlagSet("hmpid serve", flag.ExitOnError)
	socket := socketFlag(fs)
	workers := fs.Int("workers", 4, "concurrent job executions")
	queue := fs.Int("queue-depth", 256, "max queued jobs before submissions are rejected")
	tenantQueue := fs.Int("tenant-queue-depth", 0, "max queued jobs per tenant (0 = unlimited)")
	cacheEntries := fs.Int("cache-entries", 0, "selection cache bound (0 = default)")
	budget := fs.Float64("budget", 0, "admission budget in simulated seconds: a job is rejected when its price, the HMPI_Timeof prediction its run would report, exceeds it (0 = unlimited)")
	fs.Parse(args)

	os.Remove(*socket) // a previous daemon's stale socket
	ln, err := net.Listen("unix", *socket)
	if err != nil {
		fatal(err)
	}
	defer os.Remove(*socket)
	fmt.Printf("hmpid: serving on %s (%d workers)\n", *socket, *workers)
	srv := service.New(service.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		TenantQueueDepth: *tenantQueue,
		CacheEntries:     *cacheEntries,
		Budget:           *budget,
	})
	if err := srv.Serve(ln); err != nil {
		fatal(err)
	}
	st := srv.Stats()
	fmt.Printf("hmpid: shutdown after %d jobs (cache hit rate %.0f%%)\n",
		st.Done+st.Failed+st.Rejected+st.Cancelled, 100*st.Cache.HitRate())
}

// cmdSubmit submits one job described by the shared hmpirun flag set.
func cmdSubmit(args []string) {
	fs := flag.NewFlagSet("hmpid submit", flag.ExitOnError)
	socket := socketFlag(fs)
	wait := fs.Bool("wait", false, "block until the job finishes and print the full result")
	jf := jobspec.RegisterFlags(fs, jobspec.ModeHMPI)
	fs.Parse(args)
	spec, err := jf.Spec()
	if err != nil {
		fatal(err)
	}
	info, err := service.NewClient(*socket).Submit(spec, *wait)
	printJob(info)
	if err != nil {
		fatal(err)
	}
}

// cmdJobOp handles the single-job ops sharing the "<op> <job-id>" shape.
func cmdJobOp(op string, args []string) {
	fs := flag.NewFlagSet("hmpid "+op, flag.ExitOnError)
	socket := socketFlag(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("%s needs exactly one job id", op))
	}
	c := service.NewClient(*socket)
	var info service.JobInfo
	var err error
	switch op {
	case "status":
		info, err = c.Status(fs.Arg(0))
	case "result":
		info, err = c.Result(fs.Arg(0))
	case "cancel":
		info, err = c.Cancel(fs.Arg(0))
	}
	if err != nil {
		fatal(err)
	}
	printJob(info)
}

// cmdWatch streams a job's event log as it happens, then its snapshot.
func cmdWatch(args []string) {
	fs := flag.NewFlagSet("hmpid watch", flag.ExitOnError)
	socket := socketFlag(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("watch needs exactly one job id"))
	}
	info, err := service.NewClient(*socket).Watch(fs.Arg(0), 0, func(e service.JobEvent) {
		fmt.Printf("event %d: %s %s\n", e.Seq, e.State, e.Note)
	})
	if err != nil {
		fatal(err)
	}
	printJob(info)
}

func cmdStats(args []string) {
	fs := flag.NewFlagSet("hmpid stats", flag.ExitOnError)
	socket := socketFlag(fs)
	fs.Parse(args)
	st, err := service.NewClient(*socket).Stats()
	if err != nil {
		fatal(err)
	}
	printJSON(st)
}

func cmdShutdown(args []string) {
	fs := flag.NewFlagSet("hmpid shutdown", flag.ExitOnError)
	socket := socketFlag(fs)
	fs.Parse(args)
	if err := service.NewClient(*socket).Shutdown(); err != nil {
		fatal(err)
	}
	fmt.Println("hmpid: daemon draining")
}

// printJob prints a job snapshot as one JSON line (nothing when the op
// returned no job, e.g. a connection error).
func printJob(info service.JobInfo) {
	if info.ID == "" {
		return
	}
	printJSON(info)
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "hmpid: %v\n", err)
	os.Exit(1)
}
