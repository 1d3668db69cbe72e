package ext2_test

import (
	"fmt"

	"lupine/internal/ext2"
)

// Example builds a tiny root filesystem as an ext2 image and reads a
// file back out through the parser.
func Example() {
	root := ext2.NewDir("",
		ext2.NewDir("etc",
			ext2.NewFile("hostname", 0o644, []byte("lupine\n")),
		),
		ext2.NewSymlink("hn", "/etc/hostname"),
	)
	img, err := ext2.WriteImage(root)
	if err != nil {
		panic(err)
	}
	fmt.Println("blocks:", img.Size()/ext2.BlockSize)

	back, err := img.Read(nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("hostname: %s", back.Lookup("/etc/hostname").Data)
	fmt.Println("symlink ->", string(back.Lookup("/hn").Data))
	// Output:
	// blocks: 72
	// hostname: lupine
	// symlink -> /etc/hostname
}
