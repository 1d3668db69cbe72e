package kconfig

import (
	"io"
	"sort"
	"strings"
)

// Config is a resolved configuration: the set of options that are y.
// Options absent from it are n, exactly like lines missing from a .config
// file.
type Config struct {
	values map[string]struct{}
}

// NewConfig returns an empty configuration.
func NewConfig() *Config { return &Config{values: make(map[string]struct{})} }

// Get returns the symbol's value: Yes if it is set, No otherwise.
func (c *Config) Get(name string) Tristate {
	if _, ok := c.values[name]; ok {
		return Yes
	}
	return No
}

// Set assigns a value to a symbol. Setting No removes the symbol, keeping
// the "absent means n" invariant.
func (c *Config) Set(name string, v Tristate) {
	if v == No {
		delete(c.values, name)
		return
	}
	c.values[name] = struct{}{}
}

// Enable sets a symbol to y.
func (c *Config) Enable(name string) { c.values[name] = struct{}{} }

// Disable removes a symbol.
func (c *Config) Disable(name string) { delete(c.values, name) }

// Enabled reports whether the symbol is set to y.
func (c *Config) Enabled(name string) bool {
	_, ok := c.values[name]
	return ok
}

// Len reports the number of set symbols.
func (c *Config) Len() int { return len(c.values) }

// Names returns the set symbols, sorted.
func (c *Config) Names() []string {
	out := make([]string, 0, len(c.values))
	for n := range c.values {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the configuration.
func (c *Config) Clone() *Config {
	out := NewConfig()
	for n := range c.values {
		out.values[n] = struct{}{}
	}
	return out
}

// Equal reports whether two configurations set exactly the same symbols.
func (c *Config) Equal(o *Config) bool {
	if len(c.values) != len(o.values) {
		return false
	}
	for n := range c.values {
		if _, ok := o.values[n]; !ok {
			return false
		}
	}
	return true
}

// Diff describes how a configuration differs from a base.
type Diff struct {
	Added   []string // set here, absent in base
	Removed []string // set in base, absent here
}

// DiffFrom computes the difference c - base.
func (c *Config) DiffFrom(base *Config) Diff {
	var d Diff
	for n := range c.values {
		if _, ok := base.values[n]; !ok {
			d.Added = append(d.Added, n)
		}
	}
	for n := range base.values {
		if _, ok := c.values[n]; !ok {
			d.Removed = append(d.Removed, n)
		}
	}
	sort.Strings(d.Added)
	sort.Strings(d.Removed)
	return d
}

// WriteDotConfig renders the configuration in .config format, with symbols
// sorted for reproducible output.
func (c *Config) WriteDotConfig(w io.Writer) error {
	for _, n := range c.Names() {
		if _, err := io.WriteString(w, "CONFIG_"+n+"=y\n"); err != nil {
			return err
		}
	}
	return nil
}

// String renders the .config form.
func (c *Config) String() string {
	var sb strings.Builder
	c.WriteDotConfig(&sb) // strings.Builder never errors
	return sb.String()
}
