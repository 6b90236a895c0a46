package porting

import "slices"

// LandingNames lists the ocalls the framework has a landing function for.
func LandingNames() []string {
	var names []string
	for name := range landings {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}
