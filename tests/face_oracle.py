"""Face contents one face at a time, by qhull: the test oracle for the cone
recursion of latdisc.convex._Faces.contents. It shares no code with the
package; it reads only a face structure's vertices, members and dims."""

import numpy as np
from scipy.spatial import ConvexHull


def face_contents(faces) -> np.ndarray:
    """vol_k(F) of each face F of dimension k >= 1, 0 at the vertices: the
    face's vertices taken to coordinates of its affine hull (the leading k
    right singular vectors of their differences), then an edge's length or
    qhull's volume."""
    out = np.zeros(len(faces.dims))
    for f in np.flatnonzero(faces.dims > 0):
        points = faces.vertices[faces.members[f]]
        k = faces.dims[f]
        local = (points - points[0]) @ np.linalg.svd(points - points[0])[2][:k].T
        out[f] = np.ptp(local[:, 0]) if k == 1 else ConvexHull(local).volume
    return out
