package core

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// WriteArtifacts materializes the unikernel's build products on disk the
// way lupine-build ships them: the resolved kernel configuration, the
// generated init script, the ext2 root filesystem image and the
// application manifest. Returns the written paths in a fixed order.
func (u *Unikernel) WriteArtifacts(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	manifestJSON, err := u.Spec.Manifest.Marshal()
	if err != nil {
		return nil, err
	}
	files := []struct {
		name string
		data io.WriterTo
		mode os.FileMode
	}{
		{"kernel.config", strings.NewReader(u.Kernel.Config.String()), 0o644},
		{"init.sh", strings.NewReader(u.InitScript), 0o755},
		{"rootfs.ext2", u.RootFS, 0o644},
		{"manifest.json", bytes.NewReader(manifestJSON), 0o644},
	}
	var paths []string
	for _, f := range files {
		path := filepath.Join(dir, f.name)
		if err := writeFile(path, f.data, f.mode); err != nil {
			return nil, fmt.Errorf("core: writing %s: %w", f.name, err)
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// writeFile streams data into the file at path, created with mode or
// truncated, as os.WriteFile does with a byte slice.
func writeFile(path string, data io.WriterTo, mode os.FileMode) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, mode)
	if err != nil {
		return err
	}
	_, err = data.WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
