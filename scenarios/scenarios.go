// Package scenarios embeds the shipped scenario files, so a program
// loads them from any working directory.
package scenarios

import (
	"embed"

	"mdn/internal/scenario"
)

//go:embed *.json
var files embed.FS

// Load parses and validates the named shipped scenario, for example
// "portknock.json".
func Load(name string) (*scenario.Config, error) {
	f, err := files.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return scenario.Load(f)
}
