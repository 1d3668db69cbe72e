package kconfig

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Config is a resolved configuration: a total assignment of values to the
// options that are set. Options absent from the map are n / unset, exactly
// like lines missing from a .config file.
type Config struct {
	values map[string]Value
}

// NewConfig returns an empty configuration.
func NewConfig() *Config { return &Config{values: make(map[string]Value)} }

// Get implements Env.
func (c *Config) Get(name string) Value { return c.values[name] }

// Set assigns a value to a symbol. Setting No removes the symbol, keeping
// the "absent means n" invariant.
func (c *Config) Set(name string, v Value) {
	if v.Tri == No && v.Str == "" {
		delete(c.values, name)
		return
	}
	c.values[name] = v
}

// Enable sets a symbol to y.
func (c *Config) Enable(name string) { c.Set(name, TriValue(Yes)) }

// Disable removes a symbol.
func (c *Config) Disable(name string) { delete(c.values, name) }

// Enabled reports whether the symbol is set to m or y.
func (c *Config) Enabled(name string) bool { return c.values[name].Tri.Bool() }

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
	for n, v := range c.values {
		out.values[n] = v
	}
	return out
}

// Equal reports whether two configurations set exactly the same values.
func (c *Config) Equal(o *Config) bool {
	if len(c.values) != len(o.values) {
		return false
	}
	for n, v := range c.values {
		if o.values[n] != v {
			return false
		}
	}
	return true
}

// Diff describes how a configuration differs from a base.
type Diff struct {
	Added   []string // set here, absent in base
	Removed []string // set in base, absent here
	Changed []string // set in both with different values
}

// DiffFrom computes the difference c - base.
func (c *Config) DiffFrom(base *Config) Diff {
	var d Diff
	for n, v := range c.values {
		bv, ok := base.values[n]
		switch {
		case !ok:
			d.Added = append(d.Added, n)
		case bv != v:
			d.Changed = append(d.Changed, n)
		}
	}
	for n := range base.values {
		if _, ok := c.values[n]; !ok {
			d.Removed = append(d.Removed, n)
		}
	}
	sort.Strings(d.Added)
	sort.Strings(d.Removed)
	sort.Strings(d.Changed)
	return d
}

// WriteDotConfig renders the configuration in .config format, with symbols
// sorted for reproducible output.
func (c *Config) WriteDotConfig(w io.Writer) error {
	for _, n := range c.Names() {
		v := c.values[n]
		var line string
		if v.Str != "" {
			line = fmt.Sprintf("CONFIG_%s=%s\n", n, v.Str)
		} else {
			line = fmt.Sprintf("CONFIG_%s=%s\n", n, v.Tri)
		}
		if _, err := io.WriteString(w, line); err != nil {
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
