// Command kconfigtool inspects the synthetic Linux 4.0 option tree and
// resolves/diffs kernel configurations.
//
// Usage:
//
//	kconfigtool census                 # Figure 3 per-directory counts
//	kconfigtool classes                # Figure 4 class breakdown
//	kconfigtool show OPTION            # one option's declaration + costs
//	kconfigtool resolve base|microvm|general [EXTRA...]  # print .config
//	kconfigtool diff A B               # diff two named profiles
package main

import (
	"fmt"
	"os"
	"strings"

	"lupine/internal/kconfig"
	"lupine/internal/kerneldb"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	db, err := kerneldb.Load()
	if err != nil {
		fatal(err)
	}
	switch os.Args[1] {
	case "census":
		var total, micro, base int
		fmt.Printf("%-10s %7s %8s %12s\n", "directory", "total", "microvm", "lupine-base")
		for _, c := range db.Figure3Census() {
			fmt.Printf("%-10s %7d %8d %12d\n", c.Dir, c.Total, c.MicroVM, c.Base)
			total += c.Total
			micro += c.MicroVM
			base += c.Base
		}
		fmt.Printf("%-10s %7d %8d %12d\n", "TOTAL", total, micro, base)
	case "classes":
		for _, c := range db.Figure4Census() {
			fmt.Printf("%-22s %5d\n", c.Class, c.Count)
		}
	case "show":
		if len(os.Args) < 3 {
			usage()
		}
		name := strings.TrimPrefix(os.Args[2], "CONFIG_")
		o := db.Kconfig.Lookup(name)
		if o == nil {
			fatal(fmt.Errorf("unknown option %s", name))
		}
		info := db.Info(name)
		fmt.Printf("config %s\n", o.Name)
		fmt.Printf("  type:     bool\n")
		fmt.Printf("  prompt:   %q\n", o.Prompt)
		fmt.Printf("  dir:      %s\n", o.Dir)
		fmt.Printf("  class:    %s\n", info.Class)
		fmt.Printf("  size:     %d bytes\n", info.Size)
		fmt.Printf("  boot:     %v\n", info.Boot)
		if o.Depends != nil {
			fmt.Printf("  depends:  %s\n", o.Depends)
		}
		if len(info.Syscalls) > 0 {
			fmt.Printf("  syscalls: %s\n", strings.Join(info.Syscalls, ", "))
		}
		if o.Help != "" {
			fmt.Printf("  help:     %s\n", o.Help)
		}
	case "resolve":
		if len(os.Args) < 3 {
			usage()
		}
		cfg, err := resolveProfile(db, os.Args[2], os.Args[3:])
		if err != nil {
			fatal(err)
		}
		fmt.Print(cfg)
		fmt.Fprintf(os.Stderr, "# %d options set\n", cfg.Len())
	case "minimize":
		if len(os.Args) < 3 {
			usage()
		}
		cfg, err := resolveProfile(db, os.Args[2], os.Args[3:])
		if err != nil {
			fatal(err)
		}
		min, err := kconfig.Minimize(db.Kconfig, cfg)
		if err != nil {
			fatal(err)
		}
		for _, n := range min.Names() {
			fmt.Printf("CONFIG_%s=y\n", n)
		}
		fmt.Fprintf(os.Stderr, "# defconfig: %d of %d symbols\n", len(min.Names()), cfg.Len())
	case "diff":
		if len(os.Args) < 4 {
			usage()
		}
		a, err := resolveProfile(db, os.Args[2], nil)
		if err != nil {
			fatal(err)
		}
		b, err := resolveProfile(db, os.Args[3], nil)
		if err != nil {
			fatal(err)
		}
		d := b.DiffFrom(a)
		for _, n := range d.Added {
			fmt.Printf("+CONFIG_%s\n", n)
		}
		for _, n := range d.Removed {
			fmt.Printf("-CONFIG_%s\n", n)
		}
		fmt.Fprintf(os.Stderr, "# +%d -%d\n", len(d.Added), len(d.Removed))
	default:
		usage()
	}
}

func resolveProfile(db *kerneldb.DB, name string, extra []string) (*kconfig.Config, error) {
	var req *kconfig.Request
	switch name {
	case "base", "lupine-base":
		req = db.LupineBaseRequest()
	case "microvm":
		req = db.MicroVMRequest()
	case "general", "lupine-general":
		req = db.LupineBaseRequest().Enable(kerneldb.GeneralOptions()...)
	default:
		return nil, fmt.Errorf("unknown profile %q (want base, microvm or general)", name)
	}
	for _, e := range extra {
		req.Enable(strings.TrimPrefix(e, "CONFIG_"))
	}
	return db.ResolveProfile(req)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: kconfigtool census|classes|show OPT|resolve PROFILE [OPT...]|minimize PROFILE|diff A B")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kconfigtool:", err)
	os.Exit(1)
}
