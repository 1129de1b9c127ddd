package core

import (
	"strings"
	"testing"

	"kalis/internal/core/detection"
	"kalis/internal/core/module"
	"kalis/internal/core/sensing"
)

// moduleParams lists, per built-in module, every parameter its
// constructor reads (each module's doc comment is the reference). A
// module registered without a row fails the test below.
var moduleParams = map[string][]string{
	sensing.TopologyName:     {"singleHopAfter"},
	sensing.TrafficStatsName: {"interval"},
	sensing.MobilityName:     {"threshold", "quiet", "collective"},

	detection.ICMPFloodName:           {"window", "detectionThresh", "cooldown"},
	detection.SmurfName:               {"window", "detectionThresh", "cooldown"},
	detection.SYNFloodName:            {"window", "detectionThresh", "cooldown"},
	detection.SelectiveForwardingName: {"timeout", "window", "minSamples", "cooldown"},
	detection.BlackholeName:           {"timeout", "window", "minSamples", "cooldown"},
	detection.ReplicationStaticName:   {"threshold", "window", "minEvents", "cooldown"},
	detection.ReplicationMobileName:   {"threshold", "window", "minEvents", "cooldown"},
	detection.SybilName:               {"tolerance", "minIdentities", "warmup", "cooldown"},
	detection.SinkholeName:            {"learn", "dropFactor", "rootBand", "cooldown"},
	detection.WormholeName:            {"minEmergent", "cooldown"},
	detection.DataAlterationName:      {"cooldown"},
	detection.TrafficAnomalyName:      {"interval", "zThreshold", "minWindows", "cooldown"},
	detection.HealthCorrName:          {"minPeers", "window", "cooldown"},
}

// TestModuleParamsRefuseMalformedValues: every parameter of every
// registered module goes through the one reader (module.ParamReader),
// so a value that does not parse is refused with the parameter's name
// in the error, while a name the constructor does not read is ignored
// (the paper's Fig. 6 hands TrafficStatsModule two of those).
func TestModuleParamsRefuseMalformedValues(t *testing.T) {
	reg := module.NewRegistry()
	sensing.Register(reg)
	detection.Register(reg)
	for _, name := range reg.Names() {
		params, ok := moduleParams[name]
		if !ok {
			t.Errorf("%s: registered module has no row in moduleParams", name)
			continue
		}
		for _, param := range params {
			mod, err := reg.New(name, map[string]string{param: "x"})
			if err == nil || mod != nil || !strings.HasPrefix(err.Error(), param+": ") {
				t.Errorf("%s: %s=x gave (%v, %v), want no module and an error starting %q", name, param, mod, err, param+": ")
			}
		}
		if _, err := reg.New(name, map[string]string{"activationThresh": "x"}); err != nil {
			t.Errorf("%s: a parameter it does not read was refused: %v", name, err)
		}
	}
}
