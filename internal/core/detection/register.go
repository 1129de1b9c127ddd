package detection

import "kalis/internal/core/module"

// Register adds every detection-module factory to the registry, making
// them available for configuration-driven instantiation by name.
func Register(r *module.Registry) {
	r.Register(ICMPFloodName, NewICMPFlood)
	r.Register(SmurfName, NewSmurf)
	r.Register(SYNFloodName, NewSYNFlood)
	r.Register(SelectiveForwardingName, NewSelectiveForwarding)
	r.Register(BlackholeName, NewBlackhole)
	r.Register(ReplicationStaticName, NewReplicationStatic)
	r.Register(ReplicationMobileName, NewReplicationMobile)
	r.Register(SybilName, NewSybil)
	r.Register(SinkholeName, NewSinkhole)
	r.Register(WormholeName, NewWormhole)
	r.Register(DataAlterationName, NewDataAlteration)
	r.Register(TrafficAnomalyName, NewTrafficAnomaly)
	r.Register(HealthCorrName, NewHealthCorr)
}
