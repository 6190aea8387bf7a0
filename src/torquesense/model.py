"""Robot model: kinematic tree description and URDF-subset ingestion.

The accepted model format is a strict URDF subset: `link` elements with
`inertial` blocks (origin, mass, inertia) and `joint` elements of type
revolute, fixed or floating with `origin`, `axis`, `parent`, `child`.
Meshes, transmissions, limits and any other element are rejected.
Units are meters, kilograms and radians; the floating root joint must
connect the reserved parent link name "world" to the base link.
"""

import xml.etree.ElementTree as ET

import numpy as np

from .spatial import Transform, rotation_about_axis, skew


class ModelError(Exception):
    """Base class for model ingestion and lookup failures."""


class ParseError(ModelError):
    """Malformed XML or unsupported element/attribute."""


class StructureError(ModelError):
    """Kinematic tree is not a valid single-root tree."""


class ValidationError(ModelError):
    """Physical parameters violate model invariants."""


class FrameError(ModelError):
    """Requested frame or link does not exist in the model."""


WORLD = "world"

_ALLOWED_JOINT_TYPES = ("revolute", "fixed", "floating")


class Link:
    __slots__ = ("name", "mass", "com", "inertia", "index", "parent",
                 "joint_name", "joint_type", "origin", "axis", "dof")

    def __init__(self, name, mass, com, inertia):
        self.name = name
        self.mass = mass
        self.com = com
        self.inertia = inertia
        # filled in during tree assembly
        self.index = -1
        self.parent = -1
        self.joint_name = None
        self.joint_type = None
        self.origin = Transform()
        self.axis = None
        self.dof = -1


class LinkArrays:
    """The tree compiled into flat arrays, one row per link in index order.

    `home` holds each link's joint origin as a 4x4 parent<-link transform
    (the identity for the base, which has no parent link) and
    `rotation_terms` the terms of its Rodrigues rotation, so a joint
    transform is `home + sin(s) * rotation_terms[0] + (1 - cos(s)) *
    rotation_terms[1]` on the rows `dof_link` (the link each dof moves).
    `axis` holds the joint axes of the dofs in their links' frames.
    `paths[i]` lists the links from the base's child down to link i,
    padded at the end with the base index 0 to one length for all links,
    so the product of their transforms is base<-link i.  `ancestors[i, d]`
    is 1.0 when the joint of dof d sits on link i or on one of its
    ancestors, else 0.0.  `mass`, `com_h` (the link-frame center of mass
    with a trailing 1), `inertia` (rotational, about the center of mass,
    link axes) and `mass_block` (a 6x6 block holding mass times the 3x3
    identity top left) describe the link bodies.
    """

    def __init__(self, links):
        n_links = len(links)
        self.dof_link = np.array([l.index for l in links
                                  if l.joint_type == "revolute"], dtype=np.intp)
        self.home = np.zeros((n_links, 4, 4))
        self.home[:, 3, 3] = 1.0
        self.home[0] = np.eye(4)
        for l in links[1:]:
            self.home[l.index, :3, :3] = l.origin.R
            self.home[l.index, :3, 3] = l.origin.p
        self.axis = np.array([links[i].axis for i in self.dof_link],
                             dtype=float).reshape(-1, 3)
        K = np.array([skew(a) for a in self.axis]).reshape(-1, 3, 3)
        O = self.home[self.dof_link, :3, :3]
        self.rotation_terms = np.stack([O @ K, O @ (K @ K)])

        chains = [[]]
        for l in links[1:]:
            chains.append(chains[l.parent] + [l.index])
        depth = max(1, max(map(len, chains)))
        self.paths = np.array([c + [0] * (depth - len(c)) for c in chains],
                              dtype=np.intp)
        self.ancestors = np.array([np.isin(self.dof_link, c) for c in chains],
                                  dtype=float).reshape(n_links, -1)

        self.mass = np.array([l.mass for l in links], dtype=float)
        self.com_h = np.array([np.append(l.com, 1.0) for l in links])
        self.inertia = np.array([l.inertia for l in links], dtype=float)
        self.mass_block = np.zeros((n_links, 6, 6))
        self.mass_block[:, :3, :3] = self.mass[:, None, None] * np.eye(3)


class RobotModel:
    """Immutable floating-base kinematic tree.

    Links are stored in topological order with index 0 the floating
    base.  `ndof` counts the revolute joints; generalized coordinates
    are ordered [base (6), joints (ndof)].
    """

    def __init__(self, links, gravity=(0.0, 0.0, -9.81)):
        self.links = links
        self.gravity = np.asarray(gravity, dtype=float)
        self.ndof = sum(1 for l in links if l.joint_type == "revolute")
        self.nv = 6 + self.ndof
        self.link_index = {l.name: l.index for l in links}
        self.joint_names = [l.joint_name for l in links if l.joint_type == "revolute"]
        self.sensor_frames = {}
        self.total_mass = sum(l.mass for l in links)
        self.arrays = LinkArrays(links)

    def add_frame(self, name, parent_link, transform):
        """Attach a named sensor/contact frame rigidly to a link."""
        if parent_link not in self.link_index:
            raise FrameError(f"unknown parent link '{parent_link}' for frame '{name}'")
        self.sensor_frames[name] = (self.link_index[parent_link], transform)

    def frame(self, name):
        """Return (link index, fixed transform) of a named frame or link."""
        if name in self.sensor_frames:
            return self.sensor_frames[name]
        if name in self.link_index:
            return self.link_index[name], Transform()
        raise FrameError(f"unknown frame '{name}'")


def _parse_origin(elem):
    xyz = np.zeros(3)
    rpy = np.zeros(3)
    if elem is not None:
        if elem.get("xyz"):
            xyz = np.array([float(v) for v in elem.get("xyz").split()])
        if elem.get("rpy"):
            rpy = np.array([float(v) for v in elem.get("rpy").split()])
    R = (rotation_about_axis([0, 0, 1], rpy[2])
         @ rotation_about_axis([0, 1, 0], rpy[1])
         @ rotation_about_axis([1, 0, 0], rpy[0]))
    return Transform(R, xyz)


def _parse_inertial(link_elem, link_name):
    inertial = link_elem.find("inertial")
    if inertial is None:
        raise ParseError(f"link '{link_name}' has no inertial element")
    origin = _parse_origin(inertial.find("origin"))
    mass_elem = inertial.find("mass")
    if mass_elem is None:
        raise ParseError(f"link '{link_name}' has no mass element")
    mass = float(mass_elem.get("value"))
    in_elem = inertial.find("inertia")
    if in_elem is None:
        raise ParseError(f"link '{link_name}' has no inertia element")
    ixx = float(in_elem.get("ixx")); iyy = float(in_elem.get("iyy")); izz = float(in_elem.get("izz"))
    ixy = float(in_elem.get("ixy", "0")); ixz = float(in_elem.get("ixz", "0")); iyz = float(in_elem.get("iyz", "0"))
    I = np.array([[ixx, ixy, ixz], [ixy, iyy, iyz], [ixz, iyz, izz]])
    # inertia given about the COM in the inertial-origin orientation
    I = origin.R @ I @ origin.R.T
    return mass, origin.p, I


def _validate_link(name, mass, inertia):
    if mass <= 0.0:
        raise ValidationError(f"link '{name}' has nonpositive mass {mass}")
    if not np.allclose(inertia, inertia.T, atol=1e-12):
        raise ValidationError(f"link '{name}' inertia is not symmetric")
    if np.min(np.linalg.eigvalsh(inertia)) <= 0.0:
        raise ValidationError(f"link '{name}' inertia is not positive definite")


def parse_model(document, gravity=(0.0, 0.0, -9.81)):
    """Parse a URDF-subset document into a validated RobotModel.

    Raises ParseError (with line number for malformed XML),
    StructureError for bad tree topology and ValidationError for
    invalid physical parameters.
    """
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        line, col = exc.position
        raise ParseError(f"malformed XML at line {line}, column {col}: {exc}") from None
    if root.tag != "robot":
        raise ParseError(f"expected root element 'robot', got '{root.tag}'")

    links = {}
    joints = []
    for child in root:
        if child.tag == "link":
            name = child.get("name")
            if name is None:
                raise ParseError("link without a name attribute")
            if name in links:
                raise StructureError(f"duplicate link '{name}'")
            for sub in child:
                if sub.tag != "inertial":
                    raise ParseError(f"unsupported element '{sub.tag}' in link '{name}'")
            mass, com, inertia = _parse_inertial(child, name)
            _validate_link(name, mass, inertia)
            links[name] = Link(name, mass, com, inertia)
        elif child.tag == "joint":
            name = child.get("name")
            jtype = child.get("type")
            if jtype not in _ALLOWED_JOINT_TYPES:
                raise ParseError(f"joint '{name}' has unsupported type '{jtype}'")
            parent = child.find("parent")
            child_e = child.find("child")
            if parent is None or child_e is None:
                raise StructureError(f"joint '{name}' lacks parent or child")
            axis = np.array([0.0, 0.0, 1.0])
            axis_e = child.find("axis")
            if axis_e is not None:
                axis = np.array([float(v) for v in axis_e.get("xyz").split()])
            for sub in child:
                if sub.tag not in ("parent", "child", "origin", "axis"):
                    raise ParseError(f"unsupported element '{sub.tag}' in joint '{name}'")
            joints.append({
                "name": name,
                "type": jtype,
                "parent": parent.get("link"),
                "child": child_e.get("link"),
                "origin": _parse_origin(child.find("origin")),
                "axis": axis,
            })
        else:
            raise ParseError(f"unsupported element '{child.tag}'")

    return _assemble_tree(links, joints, gravity)


def _assemble_tree(links, joints, gravity):
    floating = [j for j in joints if j["type"] == "floating"]
    if len(floating) != 1:
        raise StructureError(f"expected exactly one floating root joint, found {len(floating)}")
    root_joint = floating[0]
    if root_joint["parent"] != WORLD:
        raise StructureError("floating root joint must have parent 'world'")
    if root_joint["child"] not in links:
        raise StructureError(f"root joint child link '{root_joint['child']}' is missing")

    by_child = {}
    for j in joints:
        if j["type"] == "floating":
            continue
        if j["child"] not in links:
            raise StructureError(f"joint '{j['name']}' child link '{j['child']}' is missing")
        if j["parent"] not in links:
            raise StructureError(f"joint '{j['name']}' parent link '{j['parent']}' is missing")
        if j["child"] in by_child:
            raise StructureError(f"link '{j['child']}' has multiple parent joints")
        if abs(np.linalg.norm(j["axis"]) - 1.0) > 1e-9:
            raise ValidationError(f"joint '{j['name']}' axis is not unit norm")
        by_child[j["child"]] = j

    base = links[root_joint["child"]]
    base.index = 0
    base.parent = -1
    base.joint_name = root_joint["name"]
    base.joint_type = "floating"
    base.origin = root_joint["origin"]

    children_of = {}
    for j in by_child.values():
        children_of.setdefault(j["parent"], []).append(j)

    ordered = [base]
    dof = 0
    stack = [base.name]
    visited = {base.name}
    while stack:
        parent_name = stack.pop()
        for j in sorted(children_of.get(parent_name, []), key=lambda j: j["name"]):
            cname = j["child"]
            if cname in visited:
                raise StructureError(f"cycle detected at link '{cname}'")
            link = links[cname]
            link.parent = links[parent_name].index
            link.index = len(ordered)
            link.joint_name = j["name"]
            link.joint_type = j["type"]
            link.origin = j["origin"]
            if j["type"] == "revolute":
                link.axis = j["axis"]
                link.dof = dof
                dof += 1
            ordered.append(link)
            visited.add(cname)
            stack.append(cname)

    unreachable = set(links) - visited
    if unreachable:
        raise StructureError(f"links not reachable from root: {sorted(unreachable)}")
    return RobotModel(ordered, gravity)
