package kconfig_test

import (
	"fmt"

	"lupine/internal/kconfig"
)

// Example shows the full life of a configuration: parse a Kconfig
// fragment, resolve a user request, and minimize it back to a defconfig.
func Example() {
	src := `
config NET
	bool "Networking support"

config INET
	bool "TCP/IP networking"
	depends on NET

config DEBUG
	bool "Debugging"
	depends on INET
	default y
`
	db := kconfig.NewDatabase()
	if err := kconfig.NewParser(db).ParseString("net/Kconfig", src); err != nil {
		panic(err)
	}

	res, err := kconfig.Resolve(db, kconfig.NewRequest().Enable("NET", "INET"))
	if err != nil {
		panic(err)
	}
	fmt.Print(res.Config) // .config format, sorted

	min, err := kconfig.Minimize(db, res.Config)
	if err != nil {
		panic(err)
	}
	fmt.Println("defconfig:", min.Names())
	// Output:
	// CONFIG_DEBUG=y
	// CONFIG_INET=y
	// CONFIG_NET=y
	// defconfig: [INET NET]
}
