// Fixtures for the runtimeclose analyzer. Parse-only: the hmpi import
// does not need to resolve.
package a

import "repro/internal/hmpi"

type server struct{ rt *hmpi.Runtime }

// leak: the runtime is run but never finalized.
func leak(cfg hmpi.Config) error {
	rt, err := hmpi.New(cfg) // want "never finalized"
	if err != nil {
		return err
	}
	return rt.Run(nil)
}

// deferClose is the idiom: defer Finalize next to New.
func deferClose(cfg hmpi.Config) error {
	rt, err := hmpi.New(cfg)
	if err != nil {
		return err
	}
	defer rt.Finalize()
	return rt.Run(nil)
}

// directClose finalizes explicitly at the end.
func directClose(cfg hmpi.Config) {
	rt, _ := hmpi.New(cfg)
	rt.Run(nil)
	rt.Finalize()
}

// closureClose finalizes from a nested literal (a shutdown hook).
func closureClose(cfg hmpi.Config) func() {
	rt, _ := hmpi.New(cfg)
	return func() { rt.Finalize() }
}

// escapeReturn hands the runtime to the caller: obligation transfers.
func escapeReturn(cfg hmpi.Config) (*hmpi.Runtime, error) {
	rt, err := hmpi.New(cfg)
	return rt, err
}

// escapeStore parks the runtime in a struct: the struct's owner closes it.
func escapeStore(cfg hmpi.Config, s *server) {
	rt, _ := hmpi.New(cfg)
	s.rt = rt
}

// escapeArg passes the runtime to a helper (the OnRuntime-hook shape).
func escapeArg(cfg hmpi.Config, observe func(*hmpi.Runtime)) {
	rt, _ := hmpi.New(cfg)
	observe(rt)
	rt.Run(nil)
}

// discardStmt drops the runtime on the floor: nothing can finalize it.
func discardStmt(cfg hmpi.Config) {
	hmpi.New(cfg) // want "discarded"
}

// discardBlank is the same leak through a blank binding.
func discardBlank(cfg hmpi.Config) {
	_, _ = hmpi.New(cfg) // want "discarded"
}

// nearMissWrongVar: finalizing one runtime does not cover another.
func nearMissWrongVar(cfg hmpi.Config) {
	a, _ := hmpi.New(cfg) // want "never finalized"
	b, _ := hmpi.New(cfg)
	b.Finalize()
	a.Run(nil)
}

// rebind: each binding of the name is its own lifetime; the first one is
// finalized before the rebinding, the second leaks.
func rebind(cfg hmpi.Config) {
	rt, _ := hmpi.New(cfg)
	rt.Run(nil)
	rt.Finalize()
	rt, _ = hmpi.New(cfg) // want "never finalized"
	rt.Run(nil)
}

func bad() bool { return false }

// closeIt finalizes its parameter: its summary releases the handle.
func closeIt(rt *hmpi.Runtime) { rt.Finalize() }

// inspect only reads its parameter: the obligation stays with the caller.
func inspect(rt *hmpi.Runtime) bool { return rt.Finalized() }

// mkRuntime returns a runtime it built: callers inherit the obligation.
func mkRuntime(cfg hmpi.Config) *hmpi.Runtime {
	rt, _ := hmpi.New(cfg)
	return rt
}

// closedByHelper hands the runtime to a helper that finalizes it.
func closedByHelper(cfg hmpi.Config) {
	rt, _ := hmpi.New(cfg)
	rt.Run(nil)
	closeIt(rt)
}

// readByHelper: a resolvable helper that only reads is not an escape.
func readByHelper(cfg hmpi.Config) {
	rt, _ := hmpi.New(cfg) // want "runtime from hmpi.New is never finalized"
	inspect(rt)
}

// startedByHelper: the lifetime starts at the helper call and is named
// after it.
func startedByHelper(cfg hmpi.Config) {
	rt := mkRuntime(cfg) // want "runtime from mkRuntime is never finalized"
	rt.Run(nil)
}

// startedByHelperClosed is the same start, finalized.
func startedByHelperClosed(cfg hmpi.Config) {
	rt := mkRuntime(cfg)
	defer rt.Finalize()
	rt.Run(nil)
}

// earlyReturn finalizes without defer: the error return holds a nil
// runtime and is fine, the return between New and Finalize leaks.
func earlyReturn(cfg hmpi.Config) error {
	rt, err := hmpi.New(cfg)
	if err != nil {
		return err
	}
	if bad() {
		return nil // want "return without Finalize"
	}
	rt.Run(nil)
	rt.Finalize()
	return nil
}
