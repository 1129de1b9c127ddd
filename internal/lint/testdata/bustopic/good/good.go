// Package good names every event-bus topic with a constant.
package good

import "kalis/internal/core/event"

// topicAudit is a package-local named topic.
const topicAudit = "audit"

// Wire subscribes and publishes through named constants only.
func Wire(b *event.Bus) {
	b.Subscribe(event.TopicKnowledge, func(interface{}) {})
	b.Publish(topicAudit, nil)
}
