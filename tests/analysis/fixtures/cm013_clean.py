"""CM013 clean fixture: stage calls only inside the sanctioned cascade.

Linted with an overridden path of ``src/repro/core/pipeline.py``; every
stage entry point is called from a sanctioned method, and ``run_sessions``
only dispatches to the planner.
"""


class CrowdMapPipeline:
    def anchor_session(self, session):
        frames = select_keyframes(session.frames, self.config)
        return prefetch_surf(frames)

    def run_sessions_legacy(self, sessions):
        anchors = [self.anchor_session(s) for s in sessions]
        skeleton = reconstruct_skeleton(calibrate_drift(anchors))
        return self.aggregator.aggregate(skeleton)

    def build_pathway(self, anchors):
        return register_candidates(anchors, self.config)

    def build_room(self, group):
        pano = self.panorama_builder.build(group)
        return self.layout_estimator.estimate(pano)

    def build_rooms(self, groups):
        return self.assembler.arrange([self.build_room(g) for g in groups])

    def run_sessions(self, sessions):
        # Planner dispatch only: stage execution happens inside graph
        # nodes, not here.
        return _planner_factory(self).run_sessions(sessions)
