package experiments

import (
	"fmt"

	"lupine/internal/core"
	"lupine/internal/guest"
	"lupine/internal/libos"
	"lupine/internal/metrics"
)

func init() {
	register("sec5fork", "Graceful degradation: fork on Lupine vs the unikernels (§5)", runForkDegradation)
}

// runForkDegradation executes a shell-like fork+exec+wait launcher on an
// application-specific Lupine kernel, and reports what the same program
// does to each comparator. This is the qualitative opening claim of §5:
// "rather than crashing on fork, Lupine can continue to execute
// correctly".
func runForkDegradation(*Env) (fmt.Stringer, error) {
	t := &metrics.Table{
		Title:   "fork() in a unikernel-sized application",
		Columns: []string{"system", "outcome"},
	}
	spec, app, err := appSpec("redis")
	if err != nil {
		return nil, err
	}
	spec.Program = func(p *guest.Proc, probeOnly bool) int {
		_, e := p.Fork(func(c *guest.Proc) int {
			if e := c.Execve(app.Entrypoint[0]); e != guest.OK {
				return 1
			}
			return app.Main(c, true)
		})
		if e != guest.OK {
			p.Println("launcher: fork failed")
			return 1
		}
		pid, status, _ := p.Wait()
		p.Printf("launcher: child %d exited %d; continuing\n", pid, status)
		return 0
	}
	u, err := core.Build(db(), spec, core.BuildOpts{})
	if err != nil {
		return nil, err
	}
	vm, err := u.Boot(core.BootOpts{})
	if err != nil {
		return nil, err
	}
	if err := vm.Run(); err != nil {
		return nil, err
	}
	outcome := "CRASHED"
	if vm.Succeeded("continuing") && vm.Succeeded(app.SuccessText) {
		outcome = "ran: server started under a forked launcher, control process survived"
	}
	t.AddRow("lupine", outcome)
	for _, s := range libos.All() {
		t.AddRow(s.Name, s.Fork().Error())
	}
	t.Notes = append(t.Notes,
		"§5: launching an application from a forked shell is extremely common; lacking fork support severely limits generality")
	return t, nil
}
